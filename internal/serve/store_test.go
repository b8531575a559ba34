package serve

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"dcl1sim/internal/gpu"
	"dcl1sim/internal/workload"
)

// TestStoreCompaction pins the retention policy end to end: a compacted
// store serves every surviving key byte-identically, an age bound drops
// expired entries (including pre-timestamp legacy lines), and dropped
// entries simply re-run — byte-identically — on next demand.
func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t, 0, "Baseline", "Pr4")
	cold := coldResults(t, spec)

	// Populate the store through a real server run.
	s1, err := New(Options{DataDir: dir})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	st1, err := s1.Submit("alice", spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	assertByteIdentical(t, waitJob(t, s1, st1.ID), cold)
	closeServer(t, s1)

	// Reopen with a generous age bound: the startup compaction rewrites
	// results.jsonl, and every surviving key must still reconstruct
	// byte-identically — the resubmitted sweep completes entirely cached.
	s2, err := New(Options{DataDir: dir, StoreMaxAge: 24 * time.Hour})
	if err != nil {
		t.Fatalf("reopen with policy: %v", err)
	}
	if got := s2.store.Compactions(); got < 1 {
		t.Errorf("startup compactions = %d, want >= 1", got)
	}
	if got := s2.store.Dropped(); got != 0 {
		t.Errorf("startup compaction dropped %d fresh entries", got)
	}
	st2, err := s2.Submit("bob", spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	fin2 := waitJob(t, s2, st2.ID)
	if fin2.Cached != 2 {
		t.Errorf("post-compaction cached = %d, want 2", fin2.Cached)
	}
	assertByteIdentical(t, fin2, cold)
	closeServer(t, s2)

	// An age bound evaluated far in the future drops everything.
	store, err := OpenStore(filepath.Join(dir, "results.jsonl"), StorePolicy{MaxAge: time.Hour})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	dropped, err := store.Compact(time.Now().Add(48 * time.Hour))
	if err != nil || dropped != 2 {
		t.Fatalf("future compact: dropped %d (%v), want 2", dropped, err)
	}
	if store.Entries() != 0 {
		t.Fatalf("entries = %d after full drop, want 0", store.Entries())
	}
	if err := store.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	// The drop costs nothing but time: a fresh server re-runs the points
	// and serves the same bytes.
	s3, err := New(Options{DataDir: dir})
	if err != nil {
		t.Fatalf("reopen after drop: %v", err)
	}
	defer closeServer(t, s3)
	st3, err := s3.Submit("carol", spec)
	if err != nil {
		t.Fatalf("resubmit after drop: %v", err)
	}
	fin3 := waitJob(t, s3, st3.ID)
	if fin3.Cached != 0 {
		t.Errorf("post-drop cached = %d, want 0 (everything re-ran)", fin3.Cached)
	}
	assertByteIdentical(t, fin3, cold)
}

// TestStoreCompactionMaxBytes pins the size bound: oldest entries drop
// first until the rewritten file fits, and the survivor still reads back.
func TestStoreCompactionMaxBytes(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t, 0, "Baseline", "Pr4")
	s1, err := New(Options{DataDir: dir})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	st, err := s1.Submit("alice", spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitJob(t, s1, st.ID)
	closeServer(t, s1)

	path := filepath.Join(dir, "results.jsonl")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	// A bound one byte under the full file must evict exactly the oldest
	// entry (both share a timestamp; the key breaks the tie
	// deterministically).
	store, err := OpenStore(path, StorePolicy{MaxBytes: info.Size() - 1})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	dropped, err := store.Compact(time.Now())
	if err != nil || dropped != 1 {
		t.Fatalf("compact: dropped %d (%v), want 1", dropped, err)
	}
	if store.Entries() != 1 {
		t.Fatalf("entries = %d, want 1 survivor", store.Entries())
	}
	store.Close()

	// The survivor still reconstructs after reopening.
	store2, err := OpenStore(path, StorePolicy{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer store2.Close()
	if store2.Entries() != 1 {
		t.Errorf("survivor lost across reopen: entries = %d", store2.Entries())
	}
}

// TestStoreCompactionLegacyEntries pins the migration rule: entries written
// before the timestamp field existed (no "at") are treated as expired the
// moment a max-age bound is in force, and kept forever otherwise.
func TestStoreCompactionLegacyEntries(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.jsonl")
	legacy := `{"key":"legacy-point","ok":true,"result":{}}` + "\n"
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatalf("seed legacy file: %v", err)
	}

	// No age bound: the legacy entry survives compaction.
	keep, err := OpenStore(path, StorePolicy{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if dropped, err := keep.Compact(time.Now()); err != nil || dropped != 0 {
		t.Fatalf("size-only compact dropped %d (%v), want 0", dropped, err)
	}
	if keep.Entries() != 1 {
		t.Fatalf("legacy entry lost under size-only policy")
	}
	keep.Close()

	// An age bound counts it as infinitely old.
	expire, err := OpenStore(path, StorePolicy{MaxAge: 365 * 24 * time.Hour})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer expire.Close()
	if dropped, err := expire.Compact(time.Now()); err != nil || dropped != 1 {
		t.Fatalf("age compact dropped %d (%v), want 1 (legacy = expired)", dropped, err)
	}
	if expire.Entries() != 0 {
		t.Fatalf("legacy entry survived an age bound")
	}
}

// TestStoreMissesRefitApp: the store's key names the app's content, so C-BFS
// re-fitted with a smaller shared footprint (1500 -> 300 lines) is not served
// the Results stored for the app it replaces.
func TestStoreMissesRefitApp(t *testing.T) {
	store, err := OpenStore(filepath.Join(t.TempDir(), "results.jsonl"), StorePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	app, _ := workload.ByName("C-BFS")
	j := gpu.Job{Cfg: gpu.Config{Cores: 8, L2Slices: 4, Channels: 2}, D: gpu.Design{Kind: gpu.Baseline}, App: app}
	store.Journal().Record(store.Key(j, nil), gpu.Results{Design: "Baseline", App: "C-BFS", IPC: 1}, nil)
	if _, ok := store.Lookup(store.Key(j, nil)); !ok {
		t.Fatal("the stored point misses")
	}
	refit := app
	refit.SharedLines = 300
	j.App = refit
	if r, ok := store.Lookup(store.Key(j, nil)); ok {
		t.Fatalf("re-fitted C-BFS served the replaced app's Results (IPC %v)", r.IPC)
	}
}

package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"dcl1sim/internal/gpu"
	"dcl1sim/internal/workload"
)

// countSyncs replaces the directory-sync seam for one test, recording every
// synced directory and answering with fail.
func countSyncs(t *testing.T, fail error) *[]string {
	t.Helper()
	var dirs []string
	syncDir = func(dir string) error {
		dirs = append(dirs, dir)
		if fail != nil {
			return fail
		}
		return fsyncDir(dir)
	}
	t.Cleanup(func() { syncDir = fsyncDir })
	return &dirs
}

// TestJobKeyCanonical pins the key encoding: a struct is written as its
// non-zero fields only, so a field nothing sets can be added or deleted
// without changing a key, and no two designs of a figure share one.
func TestJobKeyCanonical(t *testing.T) {
	if a, b := fieldsKey(struct{ A, B int }{A: 1}), fieldsKey(struct{ A int }{A: 1}); a != b || a != "A=1" {
		t.Errorf("fieldsKey: %q and %q, want both \"A=1\"", a, b)
	}
	// A key field must print as its value: a pointer, slice or map would
	// print an address or a nested form.
	for _, v := range []any{gpu.Design{}, gpu.Config{}} {
		rt := reflect.TypeOf(v)
		for i := range rt.NumField() {
			switch k := rt.Field(i).Type.Kind(); k {
			case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Func, reflect.Chan, reflect.Interface, reflect.Struct:
				t.Errorf("%s.%s is a %s field", rt.Name(), rt.Field(i).Name, k)
			}
		}
	}
	app := workload.Sensitive()[0]
	for _, ctx := range []*Context{NewContext(), QuickContext()} {
		designs := []gpu.Design{ctx.design("Baseline")}
		for _, name := range proposedDesigns {
			designs = append(designs, ctx.design(name))
		}
		seen := map[string]string{}
		for _, d := range designs {
			k := JobKey(gpu.Job{Cfg: ctx.Base, D: d, App: app})
			if other, ok := seen[k]; ok {
				t.Errorf("%d cores: %s and %s share key %q", ctx.Base.Cores, other, d.Name(), k)
			}
			seen[k] = d.Name()
		}
	}
	k := JobKey(gpu.Job{Cfg: gpu.Config{Cores: 16}, D: mustDesign("Sh40"), App: app})
	if want := "model=" + gpu.ModelVersion + "|Kind=Sh DCL1s=40|C-BFS|{Name:C-BFS Suite:CUDA-SDK " +
		"Class:replication-sensitive Waves:24 ComputePerMem:2 ComputeLat:0 BlockEvery:2 SharedLines:1500 " +
		"SharedFrac:0.75 SharedZipf:0.45 CampStride:0 CampFrac:0 PrivateLines:4000 CoalescedLines:4 Bytes:0 " +
		"WriteFrac:0.1 NonL1Frac:0 AtomicFrac:0 Imbalance:0 PaperReplRatio:0.8 PaperMissRate:0.75 " +
		"shiftShared:0}|Cores=16"; k != want {
		t.Errorf("JobKey = %q, want %q", k, want)
	}
}

// TestLogSyncsDirectory: creating a log and renaming a compacted file over
// it each sync the log's directory — without that, a power loss can drop the
// file, or bring back the pre-compaction one, under records Append reported
// durable. Reopening a log that holds records syncs nothing.
func TestLogSyncsDirectory(t *testing.T) {
	synced := countSyncs(t, nil)
	dir := t.TempDir()
	path := filepath.Join(dir, "log.jsonl")
	l, err := OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*synced, []string{dir}) {
		t.Fatalf("fresh OpenLog synced %v, want [%s]", *synced, dir)
	}
	if err := l.Append(map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	*synced = nil
	if l, err = OpenLog(path, nil); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(*synced) != 0 {
		t.Fatalf("reopening an existing log synced %v", *synced)
	}
	if err := l.Rewrite(func(w io.Writer) error {
		_, err := io.WriteString(w, "{\"b\":2}\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*synced, []string{dir}) {
		t.Fatalf("Rewrite synced %v, want [%s]", *synced, dir)
	}
	if err := l.Append(map[string]int{"c": 3}); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "{\"b\":2}\n{\"c\":3}\n" {
		t.Fatalf("log after rewrite + append = %q", b)
	}
}

// TestLogBrokenRewriteFailsAppends: a Rewrite that renamed the new file into
// place but could not make it durable leaves the log broken — Append fails
// instead of reporting a record durable that a power loss could drop —
// until a later Rewrite succeeds.
func TestLogBrokenRewriteFailsAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	empty := func(io.Writer) error { return nil }
	countSyncs(t, errors.New("injected sync failure"))
	if err := l.Rewrite(empty); err == nil {
		t.Fatal("Rewrite hid the failed directory sync")
	}
	if err := l.Append(map[string]int{"a": 1}); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("Append on a broken log = %v, want the sync failure", err)
	}
	countSyncs(t, nil)
	if err := l.Rewrite(empty); err != nil {
		t.Fatalf("healing Rewrite: %v", err)
	}
	if err := l.Append(map[string]int{"b": 2}); err != nil {
		t.Fatalf("Append after a healing Rewrite: %v", err)
	}
	if b, _ := os.ReadFile(path); string(b) != "{\"b\":2}\n" {
		t.Fatalf("log = %q, want only the record appended after healing", b)
	}
}

// journalModel is the reference a fuzzed journal is checked against: the
// journal's three per-key maps, kept by the rules Record, Compact and
// OpenJournal document, plus every value each key ever held.
type journalModel struct {
	t      *testing.T
	path   string
	j      *Journal
	done   map[string]gpu.Results
	failed map[string]string
	at     map[string]int64
	// everDone and everFailed are every value a key held, the set a torn
	// record may roll its key back to.
	everDone   map[string][]gpu.Results
	everFailed map[string][]string
}

func newJournalModel(t *testing.T, path string) *journalModel {
	m := &journalModel{
		t: t, path: path,
		done: map[string]gpu.Results{}, failed: map[string]string{}, at: map[string]int64{},
		everDone: map[string][]gpu.Results{}, everFailed: map[string][]string{},
	}
	m.open("")
	return m
}

func (m *journalModel) record(key string, r gpu.Results, err error) {
	m.j.Record(key, r, err)
	m.at[key] = m.j.at[key]
	if err == nil {
		m.done[key] = r
		delete(m.failed, key)
		m.everDone[key] = append(m.everDone[key], r)
	} else {
		m.failed[key] = err.Error()
		m.everFailed[key] = append(m.everFailed[key], err.Error())
	}
	m.checkMemory()
}

// compact applies the retention policy to the reference, then compacts the
// journal, which must agree.
func (m *journalModel) compact(maxAge time.Duration, maxBytes int64, now time.Time) {
	type row struct {
		at   int64
		key  string
		size int64
	}
	var rows []row
	for key, r := range m.done {
		b, _ := json.Marshal(journalEntry{Key: key, OK: true, Result: r, At: m.at[key]})
		rows = append(rows, row{m.at[key], key, int64(len(b)) + 1})
	}
	for key, msg := range m.failed {
		if _, ok := m.done[key]; ok {
			delete(m.failed, key) // invisible behind the success
			continue
		}
		b, _ := json.Marshal(journalEntry{Key: key, Err: msg, At: m.at[key]})
		rows = append(rows, row{m.at[key], key, int64(len(b)) + 1})
	}
	sort.Slice(rows, func(i, k int) bool {
		if rows[i].at != rows[k].at {
			return rows[i].at < rows[k].at
		}
		return rows[i].key < rows[k].key
	})
	var total int64
	for _, r := range rows {
		total += r.size
	}
	cutoff := now.Add(-maxAge).Unix()
	dropped := 0
	for _, r := range rows {
		if !(maxAge > 0 && r.at < cutoff) && !(maxBytes > 0 && total > maxBytes) {
			break
		}
		total -= r.size
		delete(m.done, r.key)
		delete(m.failed, r.key)
		delete(m.at, r.key)
		dropped++
	}
	n, err := m.j.Compact(maxAge, maxBytes, now)
	if err != nil {
		m.t.Fatalf("Compact: %v", err)
	}
	if n != dropped {
		m.t.Fatalf("Compact dropped %d entries, the reference %d", n, dropped)
	}
	m.checkMemory()
}

// tear kills the writer mid-append: the file loses a fuzzed suffix of its
// last line (possibly the whole line, possibly only its newline), and the
// journal reopens.
func (m *journalModel) tear(at byte) {
	m.j.Close()
	b, err := os.ReadFile(m.path)
	if err != nil {
		m.t.Fatal(err)
	}
	torn := ""
	if len(b) > 0 {
		start := bytes.LastIndexByte(b[:len(b)-1], '\n') + 1
		var e journalEntry
		if json.Unmarshal(b[start:], &e) == nil {
			torn = e.Key
		}
		if err := os.Truncate(m.path, int64(start+int(at)%(len(b)-start))); err != nil {
			m.t.Fatal(err)
		}
	}
	m.open(torn)
}

// staleTemp leaves the temp file of a compaction killed before its rename.
func (m *journalModel) staleTemp(n byte) {
	junk := strings.Repeat(`{"key":"k0","ok":true}`+"\n", int(n%4)) + `{"key":"k1","o`
	if err := os.WriteFile(m.path+".compact", []byte(junk), 0o644); err != nil {
		m.t.Fatal(err)
	}
}

func (m *journalModel) reopen() {
	m.j.Close()
	m.open("")
}

// open opens the journal and checks it against the reference. torn names
// the key whose record a tear may have lost: it may hold any value it ever
// held, or none, and the reference adopts what the journal recovered.
func (m *journalModel) open(torn string) {
	j, err := OpenJournal(m.path)
	if err != nil {
		m.t.Fatalf("OpenJournal: %v", err)
	}
	m.j = j
	m.checkLines()
	if torn != "" {
		held := func(x gpu.Results) bool { return reflect.DeepEqual(x, j.done[torn]) }
		if r, ok := j.done[torn]; ok && !slices.ContainsFunc(m.everDone[torn], held) {
			m.t.Fatalf("torn key %s recovered a result it never held: %+v", torn, r)
		}
		if msg, ok := j.failed[torn]; ok && !slices.Contains(m.everFailed[torn], msg) {
			m.t.Fatalf("torn key %s recovered an error it never held: %q", torn, msg)
		}
		adopt(m.done, j.done, torn)
		adopt(m.failed, j.failed, torn)
		adopt(m.at, j.at, torn)
	}
	m.checkMemory()
}

func adopt[V any](ref, got map[string]V, key string) {
	if v, ok := got[key]; ok {
		ref[key] = v
	} else {
		delete(ref, key)
	}
}

// checkMemory: the journal's maps equal the reference's.
func (m *journalModel) checkMemory() {
	m.t.Helper()
	if !reflect.DeepEqual(m.j.done, m.done) || !reflect.DeepEqual(m.j.failed, m.failed) || !reflect.DeepEqual(m.j.at, m.at) {
		m.t.Fatalf("journal diverged from the reference:\n done   %v\n   want %v\n failed %v\n   want %v\n at     %v\n   want %v",
			m.j.done, m.done, m.j.failed, m.failed, m.j.at, m.at)
	}
}

// checkLines: no line of the file holds two records glued together.
func (m *journalModel) checkLines() {
	m.t.Helper()
	b, err := os.ReadFile(m.path)
	if err != nil {
		m.t.Fatal(err)
	}
	for i, line := range strings.Split(string(b), "\n") {
		if strings.Count(line, `"key":`) > 1 {
			m.t.Fatalf("line %d glues records together: %s", i+1, line)
		}
	}
}

// FuzzJournalCompact drives a journal through a fuzzed program of ok and
// failed records, compactions with fuzzed bounds, torn tails, stale
// compaction temp files and reopens, checking it against journalModel after
// every step. Each instruction is four bytes: opcode, then three operands.
func FuzzJournalCompact(f *testing.F) {
	const (
		opOK = iota
		opFail
		opCompact
		opTear
		opStale
		opReopen
		opCount
	)
	f.Add([]byte{opOK, 0, 1, 0, opOK, 1, 2, 0, opFail, 2, 3, 0, opCompact, 0, 0, 0, opReopen, 0, 0, 0})
	f.Add([]byte{opOK, 0, 1, 0, opOK, 1, 2, 0, opTear, 40, 0, 0, opOK, 2, 3, 0, opReopen, 0, 0, 0})
	f.Add([]byte{opOK, 0, 1, 0, opOK, 0, 2, 0, opTear, 255, 0, 0, opOK, 1, 3, 0, opTear, 0, 0, 0})
	f.Add([]byte{opOK, 3, 1, 0, opFail, 3, 2, 0, opCompact, 0, 0, 0, opReopen, 0, 0, 0, opCompact, 0, 0, 0})
	f.Add([]byte{opOK, 0, 1, 0, opOK, 1, 2, 0, opOK, 2, 3, 0, opStale, 2, 0, 0, opCompact, 0, 0, 20, opReopen, 0, 0, 0})
	f.Add([]byte{opOK, 0, 1, 0, opFail, 1, 2, 0, opCompact, 1, 2, 0, opOK, 2, 3, 0, opStale, 1, 0, 0, opReopen, 0, 0, 0})
	f.Add([]byte{opFail, 4, 9, 0, opFail, 4, 8, 0, opTear, 7, 0, 0, opCompact, 3, 0, 9, opTear, 44, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		m := newJournalModel(t, filepath.Join(t.TempDir(), "journal.jsonl"))
		for i := 0; i+4 <= len(prog) && i < 4*48; i += 4 {
			a, b, c := prog[i+1], prog[i+2], prog[i+3]
			key := fmt.Sprintf("k%d", a%8)
			switch prog[i] % opCount {
			case opOK:
				m.record(key, gpu.Results{IPC: float64(b)}, nil)
			case opFail:
				m.record(key, gpu.Results{}, fmt.Errorf("boom %d", b))
			case opCompact:
				// maxAge 0..3 s against a clock 0..3 s ahead of the records.
				m.compact(time.Duration(a%4)*time.Second, int64(c)*32, time.Now().Add(time.Duration(b%4)*time.Second))
			case opTear:
				m.tear(a)
			case opStale:
				m.staleTemp(a)
			case opReopen:
				m.reopen()
			}
		}
		m.reopen()
		m.j.Close()
	})
}

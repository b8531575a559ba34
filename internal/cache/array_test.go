package cache

import (
	"testing"
	"testing/quick"
)

func TestArrayBasicInstallLookup(t *testing.T) {
	a := NewArray(4, 2)
	if a.Contains(5) {
		t.Fatal("empty array contains a line")
	}
	if _, _, ev := a.Install(5, false); ev {
		t.Fatal("install into empty set evicted")
	}
	if !a.Contains(5) {
		t.Fatal("line missing after install")
	}
	if a.CountValid() != 1 {
		t.Fatalf("valid = %d", a.CountValid())
	}
}

func TestArrayLRUEviction(t *testing.T) {
	a := NewArray(1, 2) // one set, 2 ways: lines collide by construction
	a.Install(10, false)
	a.Install(20, false)
	a.Lookup(10, true) // 10 becomes MRU
	victim, _, ev := a.Install(30, false)
	if !ev || victim != 20 {
		t.Fatalf("expected to evict 20, got %d (evicted=%v)", victim, ev)
	}
	if !a.Contains(10) || !a.Contains(30) || a.Contains(20) {
		t.Fatal("wrong resident set after LRU eviction")
	}
}

func TestArrayReinstallRefreshes(t *testing.T) {
	a := NewArray(1, 2)
	a.Install(1, false)
	a.Install(2, false)
	// Re-installing 1 must refresh it, not evict anything.
	if _, _, ev := a.Install(1, false); ev {
		t.Fatal("reinstall evicted")
	}
	victim, _, _ := a.Install(3, false)
	if victim != 2 {
		t.Fatalf("victim = %d, want 2 (the true LRU)", victim)
	}
}

func TestArrayDirtyPropagation(t *testing.T) {
	a := NewArray(1, 1)
	a.Install(7, false)
	if !a.MarkDirty(7) {
		t.Fatal("MarkDirty on resident line failed")
	}
	_, dirty, ev := a.Install(8, false)
	if !ev || !dirty {
		t.Fatalf("expected dirty eviction, ev=%v dirty=%v", ev, dirty)
	}
	if a.MarkDirty(12345) {
		t.Fatal("MarkDirty on absent line succeeded")
	}
}

func TestArrayInstallDirty(t *testing.T) {
	a := NewArray(1, 1)
	a.Install(7, true)
	_, dirty, _ := a.Install(8, false)
	if !dirty {
		t.Fatal("dirty install not recorded")
	}
	// Reinstalling with dirty=true dirties a clean resident line.
	a2 := NewArray(1, 1)
	a2.Install(9, false)
	a2.Install(9, true)
	_, dirty2, _ := a2.Install(10, false)
	if !dirty2 {
		t.Fatal("reinstall with dirty must set dirty bit")
	}
}

func TestArrayInvalidate(t *testing.T) {
	a := NewArray(2, 2)
	a.Install(4, false)
	a.MarkDirty(4)
	present, dirty := a.Invalidate(4)
	if !present || !dirty {
		t.Fatalf("invalidate: present=%v dirty=%v", present, dirty)
	}
	if a.Contains(4) {
		t.Fatal("line survives invalidation")
	}
	present, _ = a.Invalidate(4)
	if present {
		t.Fatal("double invalidate reported present")
	}
}

func TestArrayVictimLineReconstruction(t *testing.T) {
	// Victim line numbers must be reported exactly.
	a := NewArray(1, 1)
	line := uint64(123456)
	a.Install(line, false)
	victim, _, ev := a.Install(99999999, false)
	if !ev || victim != line {
		t.Fatalf("victim = %d, want %d", victim, line)
	}
}

func TestArrayHashedIndexSpreadsResidues(t *testing.T) {
	// The motivating property of hashed indexing: lines restricted to one
	// residue class (what a DC-L1 home or L2 slice receives) must still use
	// the whole array. 128 lines ≡ 0 (mod 4) in a 64-set 4-way array (256
	// capacity) should mostly survive; with modulo indexing only 16 sets
	// (64 lines) would be reachable.
	a := NewArray(64, 4)
	for i := uint64(0); i < 128; i++ {
		a.Install(i*4, false)
	}
	if v := a.CountValid(); v < 100 {
		t.Fatalf("only %d of 128 residue-class lines resident; index aliasing", v)
	}
}

func TestArraySequentialFillRetention(t *testing.T) {
	// Hashed indexing costs some conflict misses on a sequential fill; the
	// loss at 62% load must stay small.
	a := NewArray(64, 4)
	for line := uint64(0); line < 160; line++ {
		a.Install(line, false)
	}
	if v := a.CountValid(); v < 128 {
		t.Fatalf("retained %d of 160 at 62%% load; hash too lossy", v)
	}
}

func TestNewArrayPanics(t *testing.T) {
	for _, args := range [][2]int{{0, 1}, {1, 0}, {-1, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewArray(%d,%d) did not panic", args[0], args[1])
				}
			}()
			NewArray(args[0], args[1])
		}()
	}
}

// Property: occupancy never exceeds capacity, and a line just installed is
// always resident.
func TestArrayOccupancyProperty(t *testing.T) {
	f := func(lines []uint16) bool {
		a := NewArray(4, 2)
		for _, l := range lines {
			a.Install(uint64(l), false)
			if !a.Contains(uint64(l)) {
				return false
			}
			if a.CountValid() > a.LinesCapacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: an eviction's victim was resident before the install and is
// absent afterwards.
func TestArrayEvictionConsistencyProperty(t *testing.T) {
	f := func(lines []uint16) bool {
		a := NewArray(3, 2)
		resident := map[uint64]bool{}
		for _, l := range lines {
			line := uint64(l % 64)
			victim, _, ev := a.Install(line, false)
			if ev {
				if !resident[victim] {
					return false
				}
				delete(resident, victim)
			}
			resident[line] = true
			// Cross-check against the array.
			for r := range resident {
				if !a.Contains(r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPresenceTracker(t *testing.T) {
	p := NewPresence(0)
	p.OnInstall(0, 100)
	if p.PresentElsewhere(0, 100) {
		t.Fatal("own copy counted as replica")
	}
	if !p.PresentElsewhere(1, 100) {
		t.Fatal("peer copy not visible")
	}
	p.OnInstall(1, 100)
	if p.Replicas(100) != 2 {
		t.Fatalf("replicas = %d", p.Replicas(100))
	}
	if !p.PresentElsewhere(0, 100) {
		t.Fatal("cache 0 should see cache 1's copy")
	}
	p.OnEvict(0, 100)
	if p.Replicas(100) != 1 {
		t.Fatalf("replicas after evict = %d", p.Replicas(100))
	}
	p.OnEvict(1, 100)
	if p.Replicas(100) != 0 || p.Distinct() != 0 {
		t.Fatal("tracker leaks entries after final eviction")
	}
}

func TestPresenceIdempotentInstall(t *testing.T) {
	p := NewPresence(0)
	p.OnInstall(3, 8)
	p.OnInstall(3, 8)
	if p.Replicas(8) != 1 {
		t.Fatalf("duplicate install double counted: %d", p.Replicas(8))
	}
	p.OnEvict(3, 8)
	p.OnEvict(3, 8) // double-evict must be harmless
	if p.Replicas(8) != 0 {
		t.Fatal("double evict corrupted count")
	}
}

func TestPresenceHighCacheIDs(t *testing.T) {
	p := NewPresence(0)
	// 120-core study uses cache ids above 63 (second bitmap word).
	p.OnInstall(100, 55)
	p.OnInstall(10, 55)
	if p.Replicas(55) != 2 {
		t.Fatalf("replicas = %d", p.Replicas(55))
	}
	if !p.PresentElsewhere(100, 55) || !p.PresentElsewhere(10, 55) {
		t.Fatal("cross-word presence broken")
	}
	p.OnEvict(100, 55)
	if p.PresentElsewhere(10, 55) {
		t.Fatal("stale presence after evict")
	}
}

func TestPresenceMeanReplicas(t *testing.T) {
	p := NewPresence(0)
	p.OnInstall(0, 1) // 1 copy at install
	p.OnInstall(1, 1) // 2 copies
	p.OnInstall(2, 1) // 3 copies
	want := (1.0 + 2.0 + 3.0) / 3.0
	if got := p.MeanReplicas(); got != want {
		t.Fatalf("MeanReplicas = %f, want %f", got, want)
	}
	var empty Presence
	if (&empty).SampledReplicaCount != 0 {
		t.Fatal("zero value not empty")
	}
	if NewPresence(0).MeanReplicas() != 0 {
		t.Fatal("empty tracker mean must be 0")
	}
}

// Property: replicas equals the number of distinct caches that installed the
// line and have not evicted it.
func TestPresenceCountProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		p := NewPresence(0)
		ref := map[int]bool{}
		const line = 77
		for _, op := range ops {
			id := int(op % 16)
			if op&0x80 == 0 {
				p.OnInstall(id, line)
				ref[id] = true
			} else {
				p.OnEvict(id, line)
				delete(ref, id)
			}
			if p.Replicas(line) != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

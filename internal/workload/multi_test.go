package workload

import (
	"testing"

	"dcl1sim/internal/core"
)

func TestPartitionLabel(t *testing.T) {
	a, _ := ByName("T-AlexNet")
	b, _ := ByName("C-BLK")
	p := NewPartition(16, a, b)
	if p.Label() != "T-AlexNet+C-BLK" {
		t.Fatalf("label = %q", p.Label())
	}
}

func TestPartitionAssignsBlocks(t *testing.T) {
	hot := Spec{Name: "hot", Waves: 4, SharedLines: 100, SharedFrac: 1.0, PrivateLines: 10}
	cold := Spec{Name: "cold", Waves: 8, SharedLines: 0, SharedFrac: 0, PrivateLines: 50}
	p := NewPartition(8, hot, cold)
	// Cores 0..3 run hot (4 waves), cores 4..7 run cold (8 waves).
	if p.WavesFor(0) != 4 || p.WavesFor(3) != 4 {
		t.Fatalf("hot block waves: %d %d", p.WavesFor(0), p.WavesFor(3))
	}
	if p.WavesFor(4) != 8 || p.WavesFor(7) != 8 {
		t.Fatalf("cold block waves: %d %d", p.WavesFor(4), p.WavesFor(7))
	}
}

func TestPartitionDisjointSharedRegions(t *testing.T) {
	a := Spec{Name: "a", Waves: 2, SharedLines: 64, SharedFrac: 1.0, PrivateLines: 4}
	b := Spec{Name: "b", Waves: 2, SharedLines: 64, SharedFrac: 1.0, PrivateLines: 4}
	p := NewPartition(4, a, b)
	seen := map[uint64]int{} // line -> partition mask
	for c := 0; c < 4; c++ {
		prog := p.Program(4, c, 0, RoundRobin, 1)
		mask := 1
		if c >= 2 {
			mask = 2
		}
		for i := 0; i < 500; i++ {
			op := prog.Next()
			if op.Kind == core.OpCompute {
				continue
			}
			for _, l := range op.Lines {
				if l >= sharedRegionBase && l < nonL1RegionBase {
					seen[l] |= mask
				}
			}
		}
	}
	for l, m := range seen {
		if m == 3 {
			t.Fatalf("line %d shared across partitions", l)
		}
	}
	if len(seen) == 0 {
		t.Fatal("no shared traffic observed")
	}
}

func TestPartitionPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewPartition(4) },
		func() { NewPartition(1, Spec{}, Spec{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// A partition's key names its block size and its parts in order, so two
// machines' partitions, or the same apps swapped, never share a point key.
func TestPartitionKey(t *testing.T) {
	a, _ := ByName("T-AlexNet")
	b, _ := ByName("C-BLK")
	keys := map[string]string{}
	for name, src := range map[string]Source{
		"a+b/16": NewPartition(16, a, b), "b+a/16": NewPartition(16, b, a),
		"a+b/8": NewPartition(8, a, b), "a/16": a,
	} {
		if other, ok := keys[src.Key()]; ok {
			t.Errorf("%s and %s share key %q", name, other, src.Key())
		}
		keys[src.Key()] = name
	}
	if NewPartition(16, a, b).Key() != NewPartition(17, a, b).Key() {
		t.Error("partitions with the same blocks key apart")
	}
}

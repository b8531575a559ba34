package gpu

import (
	"errors"
	"fmt"
	"testing"

	"dcl1sim/internal/health"
	"dcl1sim/internal/workload"
)

// wideCfg is the paper's machine widened past two sharer words (160 L1s).
func wideCfg() Config {
	return Config{Cores: 160, WarmupCycles: 100, MeasureCycles: 500}
}

// Machines with more than 128 L1 nodes must run: the directory's sharer
// bitmaps are as wide as the machine's node count.
func TestWideMachineRuns(t *testing.T) {
	app, _ := workload.ByName("T-AlexNet")
	for _, tc := range []struct {
		design string
		cores  int
	}{{"Baseline", 160}, {"Pr136", 136}} {
		t.Run(tc.design, func(t *testing.T) {
			d, err := ParseDesign(tc.design)
			if err != nil {
				t.Fatal(err)
			}
			cfg := wideCfg()
			cfg.Cores = tc.cores
			s, err := NewSystemChecked(cfg, d, app)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.RunChecked(HealthOptions{}); err != nil {
				t.Fatal(err)
			}
			var replicated int64
			for _, nd := range s.Mods[0].Nodes {
				replicated += nd.Ctrl.Stat.ReplicatedMisses
			}
			if d.Kind == Baseline && replicated == 0 {
				t.Fatal("no replicated miss measured on 160 private L1s")
			}
		})
	}
}

// After a run, each module's directory must describe exactly its L1 arrays:
// every resident line's sharer set is the set of arrays holding it, and no
// other line is recorded. The table must also keep the size it was built at.
func TestTrackerMatchesArrays(t *testing.T) {
	app, _ := workload.ByName("T-AlexNet")
	short := Config{WarmupCycles: 500, MeasureCycles: 1500}
	cases := []struct {
		design string
		cfg    Config
	}{
		{"Baseline", short},
		{"Pr40", short},
		{"Sh40", short},
		{"Sh40+C10", short},
		{"CDXBar", short},
		{"SingleL1", short},
		{"MeshBase", short},
		{"Sh40+C10+M2", short},
		{"Baseline", wideCfg()},
	}
	for _, tc := range cases {
		d, err := ParseDesign(tc.design)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSystem(tc.cfg, d, app)
		t.Run(fmt.Sprintf("%s/%d", s.D.Name(), s.Cfg.Cores), func(t *testing.T) {
			slots := make([]int, len(s.Mods))
			for i, mod := range s.Mods {
				slots[i] = mod.Tracker.Slots()
			}
			s.Run()
			for i, mod := range s.Mods {
				holders := map[uint64][]bool{}
				for id, nd := range mod.Nodes {
					nd.Ctrl.Arr.ForEach(func(line uint64) {
						if holders[line] == nil {
							holders[line] = make([]bool, len(mod.Nodes))
						}
						holders[line][id] = true
					})
				}
				if len(holders) == 0 {
					t.Fatalf("module %d: no line resident in any L1", i)
				}
				tr := mod.Tracker
				for line, in := range holders {
					n := 0
					for id, held := range in {
						if tr.Holds(id, line) != held {
							t.Fatalf("module %d: line %d: directory says node %d holds it = %v, array says %v",
								i, line, id, tr.Holds(id, line), held)
						}
						if held {
							n++
						}
					}
					if tr.Replicas(line) != n {
						t.Fatalf("module %d: line %d: %d replicas recorded, %d resident", i, line, tr.Replicas(line), n)
					}
				}
				if tr.Distinct() != len(holders) {
					t.Fatalf("module %d: directory records %d lines, arrays hold %d", i, tr.Distinct(), len(holders))
				}
				if tr.Slots() != slots[i] {
					t.Fatalf("module %d: directory grew from %d to %d slots", i, slots[i], tr.Slots())
				}
			}
		})
	}
}

// A checked run audits each module's directory against its L1 arrays: one
// forged sharer bit, on a line no array holds, fails the run by rule name,
// in a machine of one module and of two.
func TestDirectoryAuditCatchesStraySharer(t *testing.T) {
	for _, d := range bothShapes(Design{Kind: Clustered, DCL1s: 4, Clusters: 2}) {
		s, err := NewSystemChecked(testCfg(), d, sharingApp())
		if err != nil {
			t.Fatal(err)
		}
		mod := s.Mods[len(s.Mods)-1]
		mod.Tracker.OnInstall(1, 1<<40) // published at the first core barrier
		_, err = s.RunChecked(HealthOptions{})
		var ie *health.InvariantError
		if !errors.As(err, &ie) {
			t.Fatalf("%s: want *health.InvariantError, got %v", d.Name(), err)
		}
		found := false
		for _, v := range ie.Dump.Violations {
			found = found || v.Rule == "directory-matches-arrays" && v.Component == mod.cname("directory")
		}
		if !found {
			t.Fatalf("%s: violations %v do not name the directory rule", d.Name(), ie.Dump.Violations)
		}
	}
}

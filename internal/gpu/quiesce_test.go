package gpu

import (
	"reflect"
	"testing"

	"dcl1sim/internal/trace"
	"dcl1sim/internal/workload"
)

// quiesceCfg is the small machine used by the equivalence tests: big enough
// to exercise every subsystem, small enough to run 7 designs × 3 apps twice.
func quiesceCfg() Config {
	return Config{
		Cores: 16, L2Slices: 8, Channels: 4,
		WarmupCycles: 1200, MeasureCycles: 3000,
	}
}

// quiesceDesigns returns one design per DesignKind, scaled to 16 cores.
func quiesceDesigns() []Design {
	return []Design{
		{Kind: Baseline},
		{Kind: Private, DCL1s: 8},
		{Kind: Shared, DCL1s: 8},
		{Kind: Clustered, DCL1s: 8, Clusters: 2},
		{Kind: CDXBar, CDXGroups: 4, CDXMid: 2},
		{Kind: SingleL1},
		{Kind: MeshBase},
	}
}

func runWithFastPath(t *testing.T, cfg Config, d Design, app workload.Source, fast bool) Results {
	t.Helper()
	s := NewSystem(cfg, d, app)
	s.Eng.SetFastPath(fast)
	return s.Run()
}

// TestQuiescenceEquivalence proves the tentpole's bit-identity claim: for
// every DesignKind on three apps spanning the paper's application classes,
// the quiescence fast path produces Results byte-identical to the legacy
// always-tick engine.
func TestQuiescenceEquivalence(t *testing.T) {
	apps := []string{"T-AlexNet", "C-NN", "R-BP"}
	cfg := quiesceCfg()
	for _, d := range quiesceDesigns() {
		for _, name := range apps {
			app, ok := workload.ByName(name)
			if !ok {
				t.Fatalf("unknown app %q", name)
			}
			d, app := d, app
			t.Run(d.Name()+"/"+name, func(t *testing.T) {
				t.Parallel()
				fast := runWithFastPath(t, cfg, d, app, true)
				legacy := runWithFastPath(t, cfg, d, app, false)
				if !reflect.DeepEqual(fast, legacy) {
					t.Errorf("fast path diverged from legacy tick:\nfast:   %+v\nlegacy: %+v", fast, legacy)
				}
			})
		}
	}
}

// TestQuiescenceEquivalenceTraceDrain replays a finite trace whose programs
// end well before the measurement window closes, so the run has a long fully
// quiescent drain phase, where nearly every component sleeps. The fast path
// must cross that phase with results identical to the legacy engine.
func TestQuiescenceEquivalenceTraceDrain(t *testing.T) {
	app, _ := workload.ByName("T-AlexNet")
	cfg := quiesceCfg()
	cfg.MeasureCycles = 20000 // far beyond the trace's natural end
	tr := trace.Capture(app, 16, 40, workload.RoundRobin, 1)
	for _, d := range []Design{
		{Kind: Baseline},
		{Kind: Shared, DCL1s: 8},
		{Kind: Clustered, DCL1s: 8, Clusters: 2},
	} {
		d := d
		t.Run(d.Name(), func(t *testing.T) {
			t.Parallel()
			fast := runWithFastPath(t, cfg, d, tr, true)
			legacy := runWithFastPath(t, cfg, d, tr, false)
			if !reflect.DeepEqual(fast, legacy) {
				t.Errorf("fast path diverged on trace drain:\nfast:   %+v\nlegacy: %+v", fast, legacy)
			}
		})
	}
}

// TestQuiescenceEquivalenceChecked runs the same comparison through the
// checked path (watchdog slicing + LegacyTick option), covering the
// RunChecked plumbing of the fast-path knob.
func TestQuiescenceEquivalenceChecked(t *testing.T) {
	app, _ := workload.ByName("P-GEMM")
	cfg := quiesceCfg()
	d := Design{Kind: Clustered, DCL1s: 8, Clusters: 2}
	fast, err := RunChecked(cfg, d, app, HealthOptions{})
	if err != nil {
		t.Fatalf("fast checked run: %v", err)
	}
	legacy, err := RunChecked(cfg, d, app, HealthOptions{LegacyTick: true})
	if err != nil {
		t.Fatalf("legacy checked run: %v", err)
	}
	if !reflect.DeepEqual(fast, legacy) {
		t.Errorf("checked fast path diverged:\nfast:   %+v\nlegacy: %+v", fast, legacy)
	}
}

// TestEveryEdgeIsProcessed pins the engine's edge loop: even across a drained
// trace's long quiescent tail, where no component ticks, every clock processes
// each of its edges, so its walk counters cover every cycle it reports.
func TestEveryEdgeIsProcessed(t *testing.T) {
	app, _ := workload.ByName("T-AlexNet")
	cfg := quiesceCfg()
	cfg.MeasureCycles = 20000 // far beyond the trace's natural end
	tr := trace.Capture(app, 16, 40, workload.RoundRobin, 1)
	s := NewSystem(cfg, Design{Kind: Shared, DCL1s: 8}, tr)
	s.Run()
	clocks := s.Eng.Clocks()
	for i, w := range s.Eng.WalkStats() {
		if now := clocks[i].Now(); w.Edges != now {
			t.Errorf("clock %s: %d edges processed of %d", w.Clock, w.Edges, now)
		}
	}
}

package gpu

import (
	"reflect"
	"testing"

	"dcl1sim/internal/sim"
	"dcl1sim/internal/workload"
)

// TestPoolEquivalence proves the memory-discipline contract (DESIGN.md §10):
// recycling Accesses and Packets through the pool produces Results
// byte-identical to allocating every value fresh, for every DesignKind on a
// saturated replication-sensitive workload that keeps the NoCs and MSHRs hot.
func TestPoolEquivalence(t *testing.T) {
	app, ok := workload.ByName("C-BFS")
	if !ok {
		t.Fatal("unknown app C-BFS")
	}
	cfg := quiesceCfg()
	for _, d := range quiesceDesigns() {
		d := d
		t.Run(d.Name(), func(t *testing.T) {
			t.Parallel()
			pooled := NewSystem(cfg, d, app).Run()
			unpooled := NewSystem(cfg, d, app, WithoutPool()).Run()
			if !reflect.DeepEqual(pooled, unpooled) {
				t.Errorf("pooling changed simulated results:\npooled:   %+v\nunpooled: %+v", pooled, unpooled)
			}
		})
	}
}

// TestPoolEquivalenceChecked covers the checked path: a machine built
// WithoutPool and run through RunChecked, alone and combined with LegacyTick,
// against the default run.
func TestPoolEquivalenceChecked(t *testing.T) {
	app, _ := workload.ByName("C-BFS")
	cfg := quiesceCfg()
	d := Design{Kind: Shared, DCL1s: 8}
	base, err := RunChecked(cfg, d, app, HealthOptions{})
	if err != nil {
		t.Fatalf("default run: %v", err)
	}
	for _, opts := range []HealthOptions{
		{},
		{LegacyTick: true},
	} {
		s, err := NewSystemChecked(cfg, d, app, WithoutPool())
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		if s.Pool != nil {
			t.Fatal("WithoutPool built a pooled machine")
		}
		r, err := s.RunChecked(opts)
		if err != nil {
			t.Fatalf("run %+v: %v", opts, err)
		}
		if !reflect.DeepEqual(base, r) {
			t.Errorf("unpooled, options %+v diverged:\nbase: %+v\ngot:  %+v", opts, base, r)
		}
	}
}

// TestSteadyStateAllocsPerCycle pins the tentpole's allocation claim: once
// free lists and buffers reach their peak (warmup), advancing the machine
// through saturated steady-state cycles performs ~0 heap allocations.
func TestSteadyStateAllocsPerCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is timing-insensitive but slow")
	}
	app, _ := workload.ByName("C-BFS")
	cfg := quiesceCfg()
	for _, d := range []Design{
		{Kind: Private, DCL1s: 8},
		{Kind: Shared, DCL1s: 8},
		{Kind: MeshBase},
	} {
		d := d
		t.Run(d.Name(), func(t *testing.T) {
			s := NewSystem(cfg, d, app)
			// Warm up well past the configured warmup so every free list,
			// queue buffer, and waiter slice has reached its peak size.
			target := sim.Cycle(8000)
			s.Eng.RunUntil(s.CoreClk, target)
			const step = 2000
			allocs := testing.AllocsPerRun(5, func() {
				target += step
				s.Eng.RunUntil(s.CoreClk, target)
			})
			perCycle := allocs / step
			if perCycle > 0.01 {
				t.Errorf("%s: %.4f heap allocs per steady-state cycle (%.0f per %d cycles); hot path must be allocation-free",
					d.Name(), perCycle, allocs, step)
			}
		})
	}
}

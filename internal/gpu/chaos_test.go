package gpu

import (
	"errors"
	"reflect"
	"testing"

	"dcl1sim/internal/chaos"
	"dcl1sim/internal/health"
	"dcl1sim/internal/workload"
)

// runChaos executes one chaotic run and returns its Results plus the canonical
// rendering of the recorded fault schedule.
func runChaos(t *testing.T, cfg Config, d Design, app workload.Source, spec *chaos.Spec, fast bool) (Results, string) {
	t.Helper()
	s := NewSystem(cfg, d, app)
	if err := s.InstallChaos(spec); err != nil {
		t.Fatalf("InstallChaos: %v", err)
	}
	s.Eng.SetFastPath(fast)
	r := s.Run()
	return r, chaos.FormatEvents(s.ChaosEvents())
}

// TestChaosDeterminism proves the bit-identity claim for fault injection: the
// same (seed, spec) yields a byte-identical fault schedule and identical
// Results on a replay and under the legacy always-tick engine. Injection
// decisions are drawn only on component tick paths, with affected work
// present, so quiescence skipping cannot perturb them.
func TestChaosDeterminism(t *testing.T) {
	app, ok := workload.ByName("T-AlexNet")
	if !ok {
		t.Fatal("unknown app T-AlexNet")
	}
	cfg := quiesceCfg()
	spec := chaos.Heavy(42)
	spec.Record = true
	for _, d := range []Design{
		{Kind: Baseline},
		{Kind: Clustered, DCL1s: 8, Clusters: 2},
	} {
		d := d
		t.Run(d.Name(), func(t *testing.T) {
			t.Parallel()
			refR, refS := runChaos(t, cfg, d, app, spec, true)
			if refR.FaultsInjected == 0 {
				t.Fatal("heavy chaos injected nothing")
			}
			r, s := runChaos(t, cfg, d, app, spec, true)
			if s != refS {
				t.Error("fault schedule diverged on replay")
			}
			if !reflect.DeepEqual(r, refR) {
				t.Errorf("Results diverged on replay:\nref: %+v\ngot: %+v", refR, r)
			}
			r, s = runChaos(t, cfg, d, app, spec, false)
			if s != refS {
				t.Error("fault schedule diverged under legacy tick")
			}
			if !reflect.DeepEqual(r, refR) {
				t.Errorf("Results diverged under legacy tick:\nref: %+v\ngot: %+v", refR, r)
			}
		})
	}
}

// TestChaosPerturbsResults: injection must actually reach the timing model —
// a chaotic run's measurements differ from a clean run's.
func TestChaosPerturbsResults(t *testing.T) {
	app, _ := workload.ByName("T-AlexNet")
	cfg := quiesceCfg()
	d := Design{Kind: Clustered, DCL1s: 8, Clusters: 2}
	clean, err := RunChecked(cfg, d, app, HealthOptions{})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	dirty, err := RunChecked(cfg, d, app, HealthOptions{Chaos: chaos.Heavy(42)})
	if err != nil {
		t.Fatalf("chaotic run: %v", err)
	}
	if dirty.FaultsInjected == 0 {
		t.Fatal("chaotic run reports zero faults")
	}
	if clean.FaultsInjected != 0 {
		t.Fatalf("clean run reports %d faults", clean.FaultsInjected)
	}
	if clean.IPC == dirty.IPC && clean.L1MissRate == dirty.L1MissRate {
		t.Errorf("heavy chaos left results untouched: IPC %v miss %v", clean.IPC, clean.L1MissRate)
	}
}

// TestChaosSmokeAllDesignKinds runs every design kind under the light preset
// through the full checked pipeline: no deadlock, no invariant violation, and
// at least one injected fault each.
func TestChaosSmokeAllDesignKinds(t *testing.T) {
	app, _ := workload.ByName("T-AlexNet")
	cfg := quiesceCfg()
	for _, d := range quiesceDesigns() {
		d := d
		t.Run(d.Name(), func(t *testing.T) {
			t.Parallel()
			r, err := RunChecked(cfg, d, app, HealthOptions{Chaos: chaos.Light(3)})
			if err != nil {
				t.Fatalf("light chaos failed the run: %v", err)
			}
			if r.FaultsInjected == 0 {
				t.Error("light chaos injected nothing")
			}
			if r.IPC <= 0 {
				t.Error("run made no progress under light chaos")
			}
		})
	}
}

// TestChaosDeadlockTripsWatchdog injects a credit-loss deadlock (every
// crossbar output permanently jammed from cycle 500) and asserts the
// watchdog converts it into a *health.DeadlockError within the configured
// stall window — well before the run's natural end — carrying a dump that
// names stalled clock domains. The verdict is pinned exactly: how the
// components' counters are grouped into probes must not move it.
func TestChaosDeadlockTripsWatchdog(t *testing.T) {
	app, _ := workload.ByName("T-AlexNet")
	cfg := quiesceCfg()
	d := Design{Kind: Clustered, DCL1s: 8, Clusters: 2}
	const window = 1500
	_, err := RunChecked(cfg, d, app, HealthOptions{
		Chaos:       &chaos.Spec{Seed: 1, JamAllAfter: 500},
		StallWindow: window,
	})
	var de *health.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *health.DeadlockError, got %v", err)
	}
	// The monitor samples probes every StallWindow/8 cycles, so the observed
	// no-progress span is the configured window rounded up to that cadence.
	if de.RefCycle != 3257 || de.Window != 1683 {
		t.Errorf("deadlock at cycle %d after %d idle cycles, want cycle 3257 after 1683", de.RefCycle, de.Window)
	}
	total := int64(cfg.WarmupCycles + cfg.MeasureCycles)
	if de.RefCycle >= total {
		t.Errorf("deadlock detected at cycle %d, not within the run (%d cycles)", de.RefCycle, total)
	}
	if de.RefCycle < 500 {
		t.Errorf("deadlock detected at cycle %d, before the jam at 500", de.RefCycle)
	}
	if de.Dump == nil {
		t.Fatal("DeadlockError carries no dump")
	}
	if len(de.Dump.Stalled()) == 0 {
		t.Error("dump names no stalled clock domains")
	}
	if len(de.Dump.Components) == 0 {
		t.Error("dump carries no component state")
	}
}

// TestChaosCorruptionTripsAudit injects a one-shot queue-accounting
// corruption and asserts the final invariant audit catches it as a
// *health.InvariantError.
func TestChaosCorruptionTripsAudit(t *testing.T) {
	app, _ := workload.ByName("T-AlexNet")
	cfg := quiesceCfg()
	d := Design{Kind: Clustered, DCL1s: 8, Clusters: 2}
	_, err := RunChecked(cfg, d, app, HealthOptions{
		Chaos: &chaos.Spec{Seed: 1, CorruptAt: 700},
	})
	var ie *health.InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("want *health.InvariantError, got %v", err)
	}
	if ie.Dump == nil || len(ie.Dump.Violations) == 0 {
		t.Fatal("InvariantError carries no violations")
	}
}

// bothShapes is a design as a machine of one module and of two: every
// run-level operation is one method looping over modules, so its error
// contract must not depend on the shape.
func bothShapes(d Design) []Design {
	linked := d
	linked.Modules = 2
	return []Design{d, linked}
}

// TestInstallChaosErrors: double installation, late installation and an
// invalid spec are build mistakes, not silently tolerated states — with the
// same errors on a machine of one module and of two.
func TestInstallChaosErrors(t *testing.T) {
	app, _ := workload.ByName("T-AlexNet")
	var msgs [][]string
	for _, d := range bothShapes(Design{Kind: Baseline}) {
		s := NewSystem(quiesceCfg(), d, app)
		if err := s.InstallChaos(nil); err != nil {
			t.Errorf("%s: nil spec errored: %v", d.Name(), err)
		}
		if err := s.InstallChaos(chaos.Light(1)); err != nil {
			t.Fatalf("%s: first install: %v", d.Name(), err)
		}
		late := NewSystem(quiesceCfg(), d, app)
		late.Eng.RunUntil(late.CoreClk, 10)
		_, runErr := RunChecked(quiesceCfg(), d, app, HealthOptions{Chaos: &chaos.Spec{OutJamProb: -1}})
		var got []string
		for _, c := range []struct {
			name string
			err  error
		}{
			{"second install", s.InstallChaos(chaos.Light(2))},
			{"install at cycle 10", late.InstallChaos(chaos.Light(1))},
			{"invalid spec", NewSystem(quiesceCfg(), d, app).InstallChaos(&chaos.Spec{FlitDelayProb: 2})},
			{"RunChecked with invalid spec", runErr},
		} {
			if c.err == nil {
				t.Errorf("%s: %s did not error", d.Name(), c.name)
				continue
			}
			got = append(got, c.name+": "+c.err.Error())
		}
		msgs = append(msgs, got)
	}
	if !reflect.DeepEqual(msgs[0], msgs[1]) {
		t.Errorf("errors differ between shapes:\none module:  %q\ntwo modules: %q", msgs[0], msgs[1])
	}
}

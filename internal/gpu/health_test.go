package gpu

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"dcl1sim/internal/health"
	"dcl1sim/internal/sim"
)

// A healthy run under the watchdog must be bit-identical to a plain Run: the
// chunked RunUntilChecked observes the system but never perturbs tick order.
func TestRunCheckedMatchesRun(t *testing.T) {
	for name, d := range designs() {
		t.Run(name, func(t *testing.T) {
			plain := Run(testCfg(), d, sharingApp())
			checked, err := RunChecked(testCfg(), d, sharingApp(), HealthOptions{})
			if err != nil {
				t.Fatalf("RunChecked errored: %v", err)
			}
			if !reflect.DeepEqual(plain, checked) {
				t.Fatalf("results diverge under watchdog:\nplain   %+v\nchecked %+v", plain, checked)
			}
		})
	}
}

// Each queue's accounting is audited once: a corrupted DC-L1 bridge queue and
// a corrupted L2 ingress queue each put exactly one queue-accounting violation
// in the machine's audit.
func TestQueueAccountingReportedOnce(t *testing.T) {
	s := NewSystem(testCfg(), designs()["sh4c2"], sharingApp())
	mod := s.Mods[0]
	mod.Nodes[0].Q1.PushCount++
	mod.l2in[0].PushCount++
	var got []string
	for _, v := range s.NewMonitor().CheckInvariants() {
		if v.Rule == "queue-accounting" {
			got = append(got, v.Component+" "+v.Detail)
		}
	}
	want := []string{ // sorted by component
		mod.Nodes[0].Ctrl.P.Name + " Q1: pushes 1 - pops 0 != occupancy 0",
		mod.L2[0].P.Name + " in: pushes 1 - pops 0 != occupancy 0",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("queue-accounting violations:\n got %q\nwant %q", got, want)
	}
}

func TestRunCheckedHealthyHasNoViolations(t *testing.T) {
	s := NewSystem(testCfg(), Design{Kind: Clustered, DCL1s: 4, Clusters: 2}, sharingApp())
	if _, err := s.RunChecked(HealthOptions{}); err != nil {
		t.Fatalf("healthy full-system run errored: %v", err)
	}
}

// Wedge the machine by black-holing every core's reply queue: waves block at
// MaxOutstanding or a fence and never unblock, so cores stay busy while no
// probe advances. The watchdog must abort with a DeadlockError naming the
// stalled component instead of spinning forever.
func TestRunCheckedDetectsWedgedSystem(t *testing.T) {
	for _, name := range []string{"baseline", "sh4c2", "mesh"} {
		d := designs()[name]
		t.Run(name, func(t *testing.T) {
			s := NewSystem(testCfg(), d, sharingApp())
			// Black-hole on every clock: replies are injected on core, NoC,
			// and mesh clocks, and each drain runs after that clock's
			// producers, so no reply ever survives to a core retire.
			drain := sim.TickFunc(func(sim.Cycle) {
				for _, co := range s.Mods[0].Cores {
					for {
						if _, ok := co.In.Pop(); !ok {
							break
						}
					}
				}
			})
			for _, clk := range s.Eng.Clocks() {
				clk.Register(drain)
			}
			_, err := s.RunChecked(HealthOptions{StallWindow: 500})
			var dl *health.DeadlockError
			if !errors.As(err, &dl) {
				t.Fatalf("expected DeadlockError, got %v", err)
			}
			if dl.Dump == nil || len(dl.Dump.Probes) == 0 || len(dl.Dump.Components) == 0 {
				t.Fatalf("deadlock dump is empty: %+v", dl.Dump)
			}
			stalled := dl.Dump.Stalled()
			foundCore := false
			for _, p := range stalled {
				if p == "core" {
					foundCore = true
				}
			}
			if !foundCore {
				t.Fatalf("stalled probes %v do not include the core clock's", stalled)
			}
			if !strings.Contains(err.Error(), "core") {
				t.Fatalf("error does not name the stalled component: %v", err)
			}
			if !strings.Contains(dl.Dump.Text(), "deadlock") {
				t.Fatalf("dump text missing reason:\n%s", dl.Dump.Text())
			}
			if js, jerr := dl.Dump.JSON(); jerr != nil || len(js) == 0 {
				t.Fatalf("dump JSON failed: %v", jerr)
			}
		})
	}
}

func TestRunCheckedDeadline(t *testing.T) {
	_, err := RunChecked(testCfg(), Design{Kind: Baseline}, sharingApp(),
		HealthOptions{Deadline: time.Nanosecond})
	var de *health.DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("expected DeadlineError, got %v", err)
	}
	if de.Dump == nil {
		t.Fatal("deadline error without dump")
	}
}

// NewSystemChecked must convert the construction panics that NewSystem
// reserves for programming errors into ordinary errors.
func TestNewSystemCheckedValidation(t *testing.T) {
	bad := []Design{
		{Kind: Private, DCL1s: 3},
		{Kind: Clustered, DCL1s: 4, Clusters: 3},
		{Kind: CDXBar, CDXGroups: 3, CDXMid: 2},
	}
	for i, d := range bad {
		if _, err := NewSystemChecked(testCfg(), d, sharingApp()); err == nil {
			t.Errorf("case %d (%s): expected error", i, d.Name())
		}
	}
	badCfg := testCfg()
	badCfg.L1KB = -4
	if _, err := NewSystemChecked(badCfg, Design{Kind: Baseline}, sharingApp()); err == nil {
		t.Error("negative L1KB accepted")
	}
	if _, err := NewSystemChecked(testCfg(), Design{Kind: Baseline}, sharingApp()); err != nil {
		t.Errorf("valid system rejected: %v", err)
	}
	// One core: the default DC-L1 count is 1, not Cores/2 = 0, so the checked
	// doors answer with a machine or a plain error — they used to divide by
	// zero in Validate, ahead of the recover barrier.
	one := Config{Cores: 1, L2Slices: 1, Channels: 1, L1KB: 4, L2KB: 32, WarmupCycles: 200, MeasureCycles: 400}
	for _, k := range []DesignKind{Private, Shared} {
		if r, err := RunChecked(one, Design{Kind: k}, sharingApp(), HealthOptions{}); err != nil || r.IPC <= 0 {
			t.Errorf("1-core %s: IPC %v, err %v; want a run", Design{Kind: k, DCL1s: 1}.Name(), r.IPC, err)
		}
	}
	if _, err := NewSystemChecked(one, Design{Kind: CDXBar}, sharingApp()); err == nil {
		t.Error("1-core CDXBar with 10 groups accepted")
	}
}

func TestDesignValidate(t *testing.T) {
	cfg := testCfg()
	if err := (Design{Kind: Clustered, DCL1s: 4, Clusters: 2}).Validate(cfg); err != nil {
		t.Errorf("sh4c2 rejected: %v", err)
	}
	// A field no part of the kind's name prints would run unnamed.
	for _, d := range []Design{
		{Kind: Shared, DCL1s: 4, Clusters: 2},
		{Kind: Baseline, Boost1: true},
		{Kind: Private, DCL1s: 4, Boost2: true},
		{Kind: CDXBar, Boost2: true},
		{Kind: Baseline, FlitBytes: 48},
	} {
		if err := d.Validate(cfg); err == nil {
			t.Errorf("%+v accepted under the name %q", d, d.Name())
		}
	}
	if err := (Design{Kind: Private, DCL1s: 3}).Validate(cfg); err == nil {
		t.Error("Pr3 on 8 cores accepted")
	}
	if err := (Design{Kind: Clustered, DCL1s: 4, Clusters: 3}).Validate(cfg); err == nil {
		t.Error("Sh4+C3 accepted")
	}
	// More DC-L1 nodes than cores would build a crossbar wider than the
	// machine; as many as cores is the widest shared design.
	for name, ok := range map[string]bool{"Sh9": false, "Sh16+C4": false, "Sh1000000": false, "Sh8+C4": true} {
		d, err := ParseDesign(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(cfg); (err == nil) != ok {
			t.Errorf("%s on %d cores: err %v, want accepted %v", name, cfg.Cores, err, ok)
		}
	}
	one := Config{Cores: 1, L2Slices: 1, Channels: 1}
	for _, k := range []DesignKind{Private, Shared, Clustered} {
		if err := (Design{Kind: k}).Validate(one); err != nil {
			t.Errorf("1-core default %s rejected: %v", k, err)
		}
	}
}

// A zero Job — what a sweep expansion leaves beside a non-nil error — has no
// workload source. The checked doors must refuse it with ErrNilApp; before the
// up-front check the construction panic's recover handler called Label() on
// the nil source and re-panicked out of RunChecked. (The batch form is
// dcl1sim's TestRunManyChecked.)
func TestRunCheckedRejectsNilApp(t *testing.T) {
	if _, err := RunChecked(Config{}, Design{}, nil, HealthOptions{}); !errors.Is(err, ErrNilApp) {
		t.Fatalf("RunChecked(zero job) = %v, want ErrNilApp", err)
	}
	if _, err := RunChecked(testCfg(), Design{Kind: Shared, DCL1s: 4, Modules: 2}, nil, HealthOptions{}); !errors.Is(err, ErrNilApp) {
		t.Fatalf("RunChecked(2-module job, nil app) = %v, want ErrNilApp", err)
	}
}

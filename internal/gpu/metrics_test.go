package gpu

import (
	"encoding/json"
	"reflect"
	"testing"

	"dcl1sim/internal/metrics"
	"dcl1sim/internal/power"
	"dcl1sim/internal/workload"
)

// lineSink captures each batch as its canonical JSON encoding, so streams can
// be compared byte for byte across execution modes.
type lineSink struct{ lines []string }

func (c *lineSink) Emit(b *metrics.Batch) {
	enc, err := json.Marshal(b)
	if err != nil {
		panic(err)
	}
	c.lines = append(c.lines, string(enc))
}

func runTelemetry(t *testing.T, cfg Config, d Design, app workload.Source,
	fast bool, every int64, cap *power.CapSpec) (*System, []string, Results) {
	t.Helper()
	s := NewSystem(cfg, d, app)
	sink := &lineSink{}
	if err := s.InstallTelemetry(metrics.Options{Every: every, Sink: sink}, cap); err != nil {
		t.Fatalf("InstallTelemetry: %v", err)
	}
	s.Eng.SetFastPath(fast)
	r := s.Run()
	return s, sink.lines, r
}

// TestMetricsStreamExecutionModeInvariance is the determinism matrix for the
// live metrics stream: the encoded batch sequence — every sample of every
// series, cycle stamps and timestamps included — must be byte-identical
// with the fast path and with the legacy always-tick engine. The collector's
// timer wakes it on each sample cycle and it snapshots only in barrier
// context, so no execution mode may be observable in the stream.
func TestMetricsStreamExecutionModeInvariance(t *testing.T) {
	app, _ := workload.ByName("T-AlexNet")
	cfg := quiesceCfg()
	for _, d := range []Design{
		{Kind: Baseline},
		{Kind: Shared, DCL1s: 8},
		{Kind: Clustered, DCL1s: 8, Clusters: 2},
	} {
		d := d
		t.Run(d.Name(), func(t *testing.T) {
			t.Parallel()
			_, refLines, refRes := runTelemetry(t, cfg, d, app, true, 512, nil)
			if len(refLines) == 0 {
				t.Fatal("reference run produced no batches")
			}
			_, lines, res := runTelemetry(t, cfg, d, app, false, 512, nil)
			if !reflect.DeepEqual(res, refRes) {
				t.Error("legacy-tick: Results diverged from reference")
			}
			if !reflect.DeepEqual(lines, refLines) {
				t.Errorf("legacy-tick: metric stream diverged (%d vs %d batches)",
					len(lines), len(refLines))
			}
		})
	}
}

// TestTelemetryDoesNotChangeResults pins the observation contract: attaching
// a collector (and its sink) must leave Results bit-identical to an
// unobserved run — which is why metrics options stay out of sweep cache keys.
func TestTelemetryDoesNotChangeResults(t *testing.T) {
	app, _ := workload.ByName("C-NN")
	cfg := quiesceCfg()
	d := Design{Kind: Shared, DCL1s: 8}
	bare := NewSystem(cfg, d, app).Run()
	_, _, observed := runTelemetry(t, cfg, d, app, true, 256, nil)
	if !reflect.DeepEqual(bare, observed) {
		t.Errorf("telemetry changed results:\nbare:     %+v\nobserved: %+v", bare, observed)
	}
}

// TestPowerCapThrottles runs the governor demo: an impossible budget must
// drive the throttle up, withhold issue slots, and show up both in the
// measured IPC and in the streamed governor series. The app must be
// compute-bound (R-HS issues well above the 2-of-8 duty cycle a fully
// throttled core retains) so the issue gate actually binds — on memory-bound
// apps a cap can even help by easing NoC contention.
func TestPowerCapThrottles(t *testing.T) {
	app, _ := workload.ByName("R-HS")
	cfg := quiesceCfg()
	d := Design{Kind: Baseline}

	_, _, free := runTelemetry(t, cfg, d, app, true, 256, nil)
	s, lines, capped := runTelemetry(t, cfg, d, app, true, 256,
		&power.CapSpec{Zone: power.ZoneModule, BudgetWatts: 1, MaxLevel: 7})

	if throttled := s.Reg.Total("core_throttled_total"); throttled == 0 {
		t.Error("capped run never withheld an issue slot")
	}
	if s.Mods[0].ThrottleLevel() == 0 {
		t.Error("governor level is 0 at end of a hopelessly over-budget run")
	}
	if capped.IPC >= 0.8*free.IPC {
		t.Errorf("capped IPC %.3f not measurably below uncapped %.3f", capped.IPC, free.IPC)
	}
	// The throttle must be visible in the stream: some batch carries a
	// positive governor level and a positive module wattage.
	var sawLevel, sawWatts bool
	for _, line := range lines {
		var b metrics.Batch
		if err := json.Unmarshal([]byte(line), &b); err != nil {
			t.Fatalf("bad batch line: %v", err)
		}
		for _, smp := range b.Samples {
			if smp.ID == "governor/core/power_throttle_level" && smp.Value > 0 {
				sawLevel = true
			}
			if smp.ID == "zone-module/core/power_zone_watts" && smp.Value > 0 {
				sawWatts = true
			}
		}
	}
	if !sawLevel || !sawWatts {
		t.Errorf("stream missing governor evidence: sawLevel=%v sawWatts=%v", sawLevel, sawWatts)
	}
}

// TestPowerCapGenerousBudgetIsNoop arms the governor with a budget no zone
// can reach: the throttle must never engage and Results must be bit-identical
// to the uncapped run.
func TestPowerCapGenerousBudgetIsNoop(t *testing.T) {
	app, _ := workload.ByName("C-NN")
	cfg := quiesceCfg()
	d := Design{Kind: Baseline}
	_, _, free := runTelemetry(t, cfg, d, app, true, 256, nil)
	s, _, capped := runTelemetry(t, cfg, d, app, true, 256,
		&power.CapSpec{Zone: power.ZoneModule, BudgetWatts: 1e6})
	if s.Reg.Total("core_throttled_total") != 0 {
		t.Error("generous budget still throttled")
	}
	if !reflect.DeepEqual(free, capped) {
		t.Errorf("generous cap changed results:\nfree:   %+v\ncapped: %+v", free, capped)
	}
}

// TestPowerCapTickModeInvariance pins the riskiest determinism claim: a
// capped run — meter windows, governor steps, and the issue-gate they drive —
// must be bit-identical in fast-path and legacy tick mode, because the
// throttle changes only in barrier context.
func TestPowerCapTickModeInvariance(t *testing.T) {
	app, _ := workload.ByName("T-AlexNet")
	cfg := quiesceCfg()
	d := Design{Kind: Clustered, DCL1s: 8, Clusters: 2}
	cap := &power.CapSpec{Zone: power.ZoneGPU, BudgetWatts: 10}

	_, refLines, refRes := runTelemetry(t, cfg, d, app, true, 512, cap)
	_, lines, res := runTelemetry(t, cfg, d, app, false, 512, cap)
	if !reflect.DeepEqual(res, refRes) {
		t.Error("legacy-tick: capped Results diverged")
	}
	if !reflect.DeepEqual(lines, refLines) {
		t.Error("legacy-tick: capped metric stream diverged")
	}
}

func TestInstallTelemetryTwiceErrors(t *testing.T) {
	app, _ := workload.ByName("C-NN")
	var msgs []string
	for _, d := range bothShapes(Design{Kind: Baseline}) {
		s := NewSystem(quiesceCfg(), d, app)
		if err := s.InstallTelemetry(metrics.Options{}, nil); err != nil {
			t.Fatalf("%s: first install: %v", d.Name(), err)
		}
		err := s.InstallTelemetry(metrics.Options{}, nil)
		if err == nil {
			t.Fatalf("%s: second install did not error", d.Name())
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Errorf("errors differ between shapes: %q vs %q", msgs[0], msgs[1])
	}
}

// TestRunCheckedWithMetrics covers the health-layer plumbing: HealthOptions
// carries the metrics options and power cap into a checked run.
func TestRunCheckedWithMetrics(t *testing.T) {
	app, _ := workload.ByName("C-NN")
	sink := &lineSink{}
	r, err := RunChecked(quiesceCfg(), Design{Kind: Shared, DCL1s: 8}, app, HealthOptions{
		Metrics:  &metrics.Options{Every: 512, Sink: sink},
		PowerCap: &power.CapSpec{Zone: power.ZoneModule, BudgetWatts: 1},
	})
	if err != nil {
		t.Fatalf("RunChecked: %v", err)
	}
	if len(sink.lines) == 0 {
		t.Fatal("checked run emitted no batches")
	}
	if r.IPC <= 0 {
		t.Fatalf("checked run produced no work: %+v", r)
	}
}

package dcl1_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"dcl1sim"
	"dcl1sim/internal/gpu"
)

// TestRunRepeatable pins the one-door contract now that the deprecated
// wrappers are gone: Run is the only entry point, and two identically
// configured calls must produce bit-identical Results (fresh system each
// time, no state leaking between runs).
func TestRunRepeatable(t *testing.T) {
	app, _ := dcl1.AppByName("T-AlexNet")
	cfg := smallCfg()
	d := dcl1.Design{Kind: dcl1.Shared, DCL1s: 8}

	first := mustRun(t, cfg, d, app)
	second := mustRun(t, cfg, d, app)
	if !reflect.DeepEqual(first, second) {
		t.Errorf("Run is not repeatable:\n%+v\n%+v", first, second)
	}
}

// TestRunWithLegacyTick pins the public face of the quiescence fast path:
// WithLegacyTick selects the always-tick engine and the results stay
// bit-identical.
func TestRunWithLegacyTick(t *testing.T) {
	app, _ := dcl1.AppByName("C-NN")
	cfg := smallCfg()
	d := dcl1.Sh40C10Boost()
	d.DCL1s, d.Clusters = 8, 2
	fast := mustRun(t, cfg, d, app)
	legacy, err := dcl1.Run(cfg, d, app, dcl1.WithLegacyTick())
	if err != nil {
		t.Fatalf("legacy-tick run: %v", err)
	}
	if !reflect.DeepEqual(fast, legacy) {
		t.Errorf("fast path diverged from legacy tick:\nfast:   %+v\nlegacy: %+v", fast, legacy)
	}
}

func TestRunContextCanceled(t *testing.T) {
	app, _ := dcl1.AppByName("T-AlexNet")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := dcl1.Run(smallCfg(), dcl1.Design{Kind: dcl1.Baseline}, app, dcl1.WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
}

func TestRunManyContextCanceled(t *testing.T) {
	app, _ := dcl1.AppByName("T-AlexNet")
	jobs := make([]dcl1.Job, 4)
	for i := range jobs {
		jobs[i] = dcl1.Job{Cfg: smallCfg(), D: dcl1.Design{Kind: dcl1.Baseline}, App: app}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errs := dcl1.RunMany(jobs, dcl1.WithContext(ctx))
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("job %d: expected context.Canceled, got %v", i, err)
		}
	}
}

// tinyCfg is the 8-core machine of the batch-guarantee tests below.
func tinyCfg() dcl1.Config {
	return dcl1.Config{
		Cores: 8, L2Slices: 4, Channels: 2, L1KB: 4, L2KB: 32,
		WarmupCycles: 2000, MeasureCycles: 6000,
	}
}

func appNamed(t *testing.T, name string) dcl1.AppSpec {
	t.Helper()
	a, ok := dcl1.AppByName(name)
	if !ok {
		t.Fatalf("unknown app %q", name)
	}
	return a
}

// panicApp panics when built and when asked for its label, so the batch's
// panic barrier must describe the failure without trusting the source.
type panicApp struct{ dcl1.AppSpec }

func (panicApp) Label() string    { panic("injected label panic") }
func (panicApp) WavesFor(int) int { panic("injected workload panic") }

// TestRunManyChecked pins the batch door's error slots: an invalid design
// and a zero Job (what a sweep expansion leaves beside an error) fail in
// their own slots, and a healthy neighbour equals a direct run.
func TestRunManyChecked(t *testing.T) {
	cfg := tinyCfg()
	jobs := []dcl1.Job{
		{Cfg: cfg, D: dcl1.Design{Kind: dcl1.Baseline}, App: appNamed(t, "C-BFS")},
		{Cfg: cfg, D: dcl1.Design{Kind: dcl1.Private, DCL1s: 3}, App: appNamed(t, "C-BFS")}, // 3 does not divide 8
		{},
		{Cfg: cfg, D: dcl1.Design{Kind: dcl1.Shared, DCL1s: 4}, App: appNamed(t, "T-AlexNet")},
	}
	out, errs := dcl1.RunMany(jobs, dcl1.WithWorkers(2))
	if len(out) != len(jobs) || len(errs) != len(jobs) {
		t.Fatalf("got %d results, %d errors for %d jobs", len(out), len(errs), len(jobs))
	}
	if errs[0] != nil || errs[3] != nil {
		t.Fatalf("healthy jobs errored: %v %v", errs[0], errs[3])
	}
	if errs[1] == nil {
		t.Error("invalid design did not error")
	}
	if !errors.Is(errs[2], gpu.ErrNilApp) {
		t.Errorf("zero job = %v, want ErrNilApp", errs[2])
	}
	if want := mustRun(t, cfg, jobs[0].D, jobs[0].App); !reflect.DeepEqual(out[0], want) {
		t.Error("batch result differs from a direct run")
	}
}

// TestRunManyCheckedPartialResults pins the batch's hard guarantee: a
// panicking workload source degrades into its own *SimError slot while every
// other job's Results come back intact, identical to a clean batch's.
func TestRunManyCheckedPartialResults(t *testing.T) {
	cfg := tinyCfg()
	good := []dcl1.Job{
		{Cfg: cfg, D: dcl1.Design{Kind: dcl1.Baseline}, App: appNamed(t, "C-BFS")},
		{Cfg: cfg, D: dcl1.Design{Kind: dcl1.Private, DCL1s: 4}, App: appNamed(t, "T-AlexNet")},
	}
	jobs := []dcl1.Job{
		good[0],
		{Cfg: cfg, D: dcl1.Design{Kind: dcl1.Baseline}, App: panicApp{appNamed(t, "C-BFS")}},
		good[1],
	}
	results, errs := dcl1.RunMany(jobs, dcl1.WithWorkers(2))
	var se *dcl1.SimError
	if !errors.As(errs[1], &se) {
		t.Fatalf("panicking workload: want *SimError, got %v", errs[1])
	}
	if se.App != "<unlabeled>" || se.Stack == "" {
		t.Errorf("SimError = {App %q, stack %d bytes}", se.App, len(se.Stack))
	}
	clean, cleanErrs := dcl1.RunMany(good, dcl1.WithWorkers(1))
	for i, err := range cleanErrs {
		if err != nil {
			t.Fatalf("clean job %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(results[0], clean[0]) || !reflect.DeepEqual(results[2], clean[1]) {
		t.Error("healthy jobs perturbed by a failing neighbour")
	}
}

// TestRunManyMatchesSerial: a parallel batch equals one direct Run per job.
func TestRunManyMatchesSerial(t *testing.T) {
	cfg := tinyCfg()
	jobs := []dcl1.Job{
		{Cfg: cfg, D: dcl1.Design{Kind: dcl1.Baseline}, App: appNamed(t, "C-BFS")},
		{Cfg: cfg, D: dcl1.Design{Kind: dcl1.Shared, DCL1s: 4}, App: appNamed(t, "C-BFS")},
		{Cfg: cfg, D: dcl1.Design{Kind: dcl1.Private, DCL1s: 4}, App: appNamed(t, "T-AlexNet")},
	}
	par, errs := dcl1.RunMany(jobs, dcl1.WithWorkers(3))
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if serial := mustRun(t, j.Cfg, j.D, j.App); !reflect.DeepEqual(par[i], serial) {
			t.Fatalf("job %d diverged: parallel IPC %v vs serial %v", i, par[i].IPC, serial.IPC)
		}
	}
}

// TestRunManyEmptyAndDefaults: an empty batch returns empty slices, and no
// WithWorkers runs on the default pool (GOMAXPROCS).
func TestRunManyEmptyAndDefaults(t *testing.T) {
	if out, errs := dcl1.RunMany(nil); len(out) != 0 || len(errs) != 0 {
		t.Fatal("empty batch must return empty results")
	}
	out, errs := dcl1.RunMany([]dcl1.Job{{Cfg: tinyCfg(), D: dcl1.Design{Kind: dcl1.Baseline}, App: appNamed(t, "C-BFS")}})
	if len(out) != 1 || errs[0] != nil || out[0].IPC <= 0 {
		t.Fatalf("single-job batch failed: %v", errs)
	}
}

// TestRunManyDeterminism pins the parallel-sweep contract: the same job list
// yields identical Results slices regardless of worker count. Run under
// -race, this also exercises the batch machinery for data races.
func TestRunManyDeterminism(t *testing.T) {
	cfg := smallCfg()
	var jobs []dcl1.Job
	for _, name := range []string{"T-AlexNet", "C-NN", "R-BP", "C-BFS"} {
		app, ok := dcl1.AppByName(name)
		if !ok {
			t.Fatalf("unknown app %q", name)
		}
		for _, d := range []dcl1.Design{
			{Kind: dcl1.Baseline},
			{Kind: dcl1.Shared, DCL1s: 8},
			{Kind: dcl1.Clustered, DCL1s: 8, Clusters: 2},
		} {
			jobs = append(jobs, dcl1.Job{Cfg: cfg, D: d, App: app})
		}
	}
	serial, errs1 := dcl1.RunMany(jobs, dcl1.WithWorkers(1))
	parallel, errs2 := dcl1.RunMany(jobs, dcl1.WithWorkers(runtime.GOMAXPROCS(0)))
	for i := range jobs {
		if errs1[i] != nil || errs2[i] != nil {
			t.Fatalf("job %d errored: serial=%v parallel=%v", i, errs1[i], errs2[i])
		}
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("RunMany results depend on worker count")
	}
}

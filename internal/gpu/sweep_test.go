package gpu

import (
	"errors"
	"reflect"
	"testing"

	"dcl1sim/internal/core"
	"dcl1sim/internal/health"
	"dcl1sim/internal/workload"
)

func TestRunManyMatchesSerial(t *testing.T) {
	cfg := testCfg()
	jobs := []Job{
		{Cfg: cfg, D: Design{Kind: Baseline}, App: sharingApp()},
		{Cfg: cfg, D: Design{Kind: Shared, DCL1s: 4}, App: sharingApp()},
		{Cfg: cfg, D: Design{Kind: Private, DCL1s: 4}, App: streamApp()},
	}
	par, errs := RunManyChecked(jobs, 3, HealthOptions{})
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		serial := Run(j.Cfg, j.D, j.App)
		if par[i].IPC != serial.IPC || par[i].L1MissRate != serial.L1MissRate {
			t.Fatalf("job %d diverged: parallel %+v vs serial %+v", i, par[i].IPC, serial.IPC)
		}
	}
}

// panicApp is a workload source that panics everywhere — including Label,
// which exercises safeLabel in the panic barrier's error construction.
type panicApp struct{}

func (panicApp) Label() string           { panic("injected label panic") }
func (panicApp) WavesFor(coreID int) int { panic("injected workload panic") }
func (panicApp) Program(cores, coreID, waveID int, sched workload.Sched, seed uint64) core.Program {
	panic("injected workload panic")
}

// TestRunManyCheckedPartialResults pins the batch API's hard guarantee: a
// failing job — validation error or a panicking workload source — degrades
// into its own error slot while every other job's Results are returned
// intact, identical to what a clean batch produces.
func TestRunManyCheckedPartialResults(t *testing.T) {
	cfg := testCfg()
	good := []Job{
		{Cfg: cfg, D: Design{Kind: Baseline}, App: sharingApp()},
		{Cfg: cfg, D: Design{Kind: Private, DCL1s: 4}, App: streamApp()},
	}
	jobs := []Job{
		good[0],
		{Cfg: cfg, D: Design{Kind: Clustered, DCL1s: 8, Clusters: 3}, App: sharingApp()}, // 3 does not divide 8
		{Cfg: cfg, D: Design{Kind: Baseline}, App: panicApp{}},
		good[1],
	}
	results, errs := RunManyChecked(jobs, 2, HealthOptions{})
	if len(results) != len(jobs) || len(errs) != len(jobs) {
		t.Fatalf("got %d results / %d errs for %d jobs", len(results), len(errs), len(jobs))
	}
	if errs[1] == nil {
		t.Error("invalid design did not error")
	}
	var se *health.SimError
	if !errors.As(errs[2], &se) {
		t.Fatalf("panicking workload: want *health.SimError, got %v", errs[2])
	}
	if se.Stack == "" {
		t.Error("SimError carries no stack")
	}
	cleanResults, cleanErrs := RunManyChecked(good, 1, HealthOptions{})
	for i, err := range cleanErrs {
		if err != nil {
			t.Fatalf("clean job %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(results[0], cleanResults[0]) {
		t.Errorf("job 0 perturbed by failing neighbors: %+v vs %+v", results[0], cleanResults[0])
	}
	if results[3].IPC != cleanResults[1].IPC || results[3].L1MissRate != cleanResults[1].L1MissRate {
		t.Errorf("job 3 perturbed by failing neighbors: %+v vs %+v", results[3], cleanResults[1])
	}
}

func TestRunManyEmptyAndDefaults(t *testing.T) {
	if out, errs := RunManyChecked(nil, 0, HealthOptions{}); len(out) != 0 || len(errs) != 0 {
		t.Fatal("empty batch must return empty results")
	}
	cfg := testCfg()
	out, errs := RunManyChecked([]Job{{Cfg: cfg, D: Design{Kind: Baseline}, App: sharingApp()}}, 0, HealthOptions{})
	if len(out) != 1 || errs[0] != nil || out[0].IPC <= 0 {
		t.Fatalf("single-job batch failed: %v", errs)
	}
}

// labelPanicApp builds and runs like its Spec but panics when asked for its
// label — which the run reads to stamp its results.
type labelPanicApp struct{ workload.Spec }

func (labelPanicApp) Label() string { panic("injected label panic") }

// TestRunCheckedSurvivesPanickingLabel pins the run's one recover handler: a
// panic raised by Source.Label inside (*System).RunChecked comes back as a
// *health.SimError (the handler must not call Label again to describe it),
// on a machine of one module and of two.
func TestRunCheckedSurvivesPanickingLabel(t *testing.T) {
	for _, d := range bothShapes(Design{Kind: Shared, DCL1s: 4}) {
		s := NewSystem(testCfg(), d, labelPanicApp{sharingApp()})
		_, err := s.RunChecked(HealthOptions{})
		var se *health.SimError
		if !errors.As(err, &se) {
			t.Fatalf("%s: want *health.SimError, got %v", d.Name(), err)
		}
		if se.App != "<unlabeled>" || se.Design != d.Name() || se.Stack == "" {
			t.Errorf("%s: SimError = {Design %q App %q stack %d bytes}", d.Name(), se.Design, se.App, len(se.Stack))
		}
	}
}

package gpu

import (
	"fmt"
	"runtime"
	"sync"

	"dcl1sim/internal/workload"
)

// Job is one simulation in a sweep.
type Job struct {
	Cfg Config
	D   Design
	App workload.Source
}

// RunManyChecked executes a batch of independent simulations across worker
// goroutines (one per CPU by default) and returns results in job order; each
// simulation is deterministic, so the batch output is independent of
// scheduling. Every job runs with the progress watchdog, deadline, and
// invariant audit of opts, and errs[i] carries job i's typed health error
// (nil on success). A wedged or crashing job degrades into its error slot
// instead of hanging or killing the sweep. A canceled opts.Ctx aborts running
// jobs at their next watchdog slice and fails not-yet-started jobs
// immediately, so sweeps wind down cleanly.
//
// Partial results are a hard guarantee, not best effort: out and errs always
// have len(jobs) entries, every job is attempted regardless of earlier
// failures, and out[i] is valid exactly when errs[i] is nil. Each job runs
// behind its own panic barrier (runJobChecked), so even a panic that escapes
// the run's internal recovery — e.g. from a misbehaving workload.Source —
// becomes that job's *health.SimError instead of killing the worker pool and
// discarding completed runs.
func RunManyChecked(jobs []Job, workers int, opts HealthOptions) (out []Results, errs []error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	out = make([]Results, len(jobs))
	errs = make([]error, len(jobs))
	if len(jobs) == 0 {
		return out, errs
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if opts.Ctx != nil && opts.Ctx.Err() != nil {
					errs[i] = fmt.Errorf("gpu: job %d canceled before start: %w", i, opts.Ctx.Err())
					continue
				}
				out[i], errs[i] = runJobChecked(jobs[i], opts)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out, errs
}

// runJobChecked runs one sweep job behind a panic barrier, converting any
// panic RunChecked's own recovery did not absorb into a *health.SimError so
// the worker pool — and the other jobs' results — survive.
func runJobChecked(j Job, opts HealthOptions) (r Results, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, err = Results{}, simError(j.D, j.App, 0, p)
		}
	}()
	return RunChecked(j.Cfg, j.D, j.App, opts)
}

// safeLabel reads app.Label() without trusting it: the panic barrier above
// exists precisely because a workload source may misbehave.
func safeLabel(app workload.Source) (label string) {
	defer func() {
		if recover() != nil {
			label = "<unlabeled>"
		}
	}()
	if app == nil {
		return "<nil>"
	}
	return app.Label()
}

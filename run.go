package dcl1

import (
	"context"

	"dcl1sim/internal/experiments"
	"dcl1sim/internal/gpu"
)

// RunOption customizes a Run or RunMany call. The zero set of options runs
// the simulation under the default health layer: progress watchdog with the
// default stall window, final invariant audit, panic recovery — and returns
// any failure as a typed error (see health.go) instead of hanging or
// crashing.
type RunOption func(*runConfig)

type runConfig struct {
	h       gpu.HealthOptions
	workers int
}

// WithHealth sets the health layer's knobs: stall window and wall-clock
// deadline. It overlays only those two fields, so options are
// order-independent: a context from WithContext, the WithLegacyTick flag,
// chaos, metrics and a power cap survive it whichever comes first.
func WithHealth(h HealthOptions) RunOption {
	return func(rc *runConfig) {
		rc.h.StallWindow, rc.h.Deadline = h.StallWindow, h.Deadline
	}
}

// WithWorkers sets the number of worker goroutines RunMany spreads its jobs
// across. n <= 0 (the default) uses GOMAXPROCS. Each simulation stays
// single-threaded and deterministic, so results are independent of n. Run
// ignores this option.
func WithWorkers(n int) RunOption {
	return func(rc *runConfig) { rc.workers = n }
}

// WithContext cancels the run (or every job of a batch) when ctx is done.
// The returned error wraps ctx.Err(), so errors.Is(err, context.Canceled)
// and errors.Is(err, context.DeadlineExceeded) work.
func WithContext(ctx context.Context) RunOption {
	return func(rc *runConfig) { rc.h.Ctx = ctx }
}

// WithLegacyTick disables the engine's quiescence fast path and ticks every
// component on every clock edge, as the original engine did. Results are
// bit-identical either way; the knob exists for validation and before/after
// benchmarking (see DESIGN.md §9).
func WithLegacyTick() RunOption {
	return func(rc *runConfig) { rc.h.LegacyTick = true }
}

func applyOptions(opts []RunOption) *runConfig {
	rc := &runConfig{}
	for _, o := range opts {
		o(rc)
	}
	return rc
}

// Run executes one workload (an AppSpec, Trace, or NewPartition) on the given
// machine and design and returns its measurements. It is the single entry
// point of the package (RunMany is the batch form of the same door).
//
// Errors are typed (see health.go): validation problems come back as plain
// errors before any simulation, a wedged run aborts with *DeadlockError, a
// wall-clock overrun with *DeadlineError, a failed post-run audit with
// *InvariantError, and an internal panic is captured as *SimError. A healthy
// run's Results are bit-identical regardless of which options are set.
//
//	r, err := dcl1.Run(cfg, dcl1.Sh40C10Boost(), app)
//	r, err := dcl1.Run(cfg, d, app, dcl1.WithHealth(dcl1.HealthOptions{Deadline: time.Minute}))
//	r, err := dcl1.Run(cfg, d, app, dcl1.WithContext(ctx))
func Run(cfg Config, d Design, w Workload, opts ...RunOption) (Results, error) {
	rc := applyOptions(opts)
	return gpu.RunChecked(cfg, d, w, rc.h)
}

// RunMany executes a batch of independent simulations across worker
// goroutines (WithWorkers; GOMAXPROCS by default) and returns results in job
// order. errs[i] is job i's typed error, or nil. One wedged or crashing job
// degrades into its error slot instead of hanging or killing the sweep, and
// a canceled WithContext context fails not-yet-started jobs immediately.
// Each simulation is single-threaded and deterministic, so the output is
// independent of worker count and scheduling. The batch runs on the sweep
// supervisor's worker pool and panic barrier, without retries or a journal.
func RunMany(jobs []Job, opts ...RunOption) (results []Results, errs []error) {
	rc := applyOptions(opts)
	sup := &experiments.Supervisor{Health: rc.h, Workers: rc.workers}
	return sup.RunAll(jobs)
}

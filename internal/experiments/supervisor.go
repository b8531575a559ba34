package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"dcl1sim/internal/chaos"
	"dcl1sim/internal/gpu"
	"dcl1sim/internal/health"
	"dcl1sim/internal/power"
)

// RetryPolicy bounds how a Supervisor retries transiently failed points.
// Only wall-clock deadline overruns (*health.DeadlineError) are classified
// transient — a deadlock, invariant violation, or panic is deterministic and
// would simply recur. The zero value never retries.
type RetryPolicy struct {
	// Retries is the number of re-attempts after the first try (0 = none).
	Retries int
}

// The retry backoff: retryBackoff before the first retry, doubling per
// further retry, capped at maxRetryBackoff. Variables, not constants, only
// so tests can stretch or shrink the sleep; nothing else assigns them.
var (
	retryBackoff    = 250 * time.Millisecond
	maxRetryBackoff = 5 * time.Second
)

// retryDelay returns the backoff before retry number n (0-based).
func retryDelay(n int) time.Duration {
	d := retryBackoff
	for i := 0; i < n && d < maxRetryBackoff; i++ {
		d *= 2
	}
	return min(d, maxRetryBackoff)
}

// Supervisor runs sweep points so that no single point can take the campaign
// down: every point executes behind a panic barrier (panics become typed
// *health.SimError values with stacks), transient failures retry with capped
// exponential backoff, Health.Deadline bounds each simulation, and
// completed points are journaled so an interrupted sweep resumes by skipping
// finished work. Failed points degrade into their error slots — callers emit
// partial results plus a failure table instead of aborting.
//
// Contains a mutex; use by pointer and do not copy.
type Supervisor struct {
	// Health is the per-point health configuration (watchdog, per-simulation
	// deadline, ctx, chaos, power cap, live metrics).
	Health gpu.HealthOptions
	// Workers is the sweep parallelism; <= 0 selects GOMAXPROCS.
	Workers int
	// Retry classifies and retries transient failures.
	Retry RetryPolicy
	// Journal, when non-nil, records completed points and supplies the skip
	// set on resume.
	Journal *Journal
	// Progress, when non-nil, receives one line per point (ran / FAILED /
	// skip / retry).
	Progress io.Writer

	mu sync.Mutex
}

// PointKey returns the content address of one supervised point: JobKey plus
// the chaos spec when fault injection is armed and the power cap when the
// governor is. Both perturb results, so an armed point never matches a clean
// journal entry (and vice versa). The service layer's result cache uses the
// same key, so cache hits and journal hits agree everywhere a point's
// identity matters. Metrics collection is deliberately absent: observation
// never changes Results.
func PointKey(j gpu.Job, spec *chaos.Spec, cap *power.CapSpec) string {
	k := JobKey(j)
	if spec != nil {
		k += fmt.Sprintf("|chaos=%+v", *spec)
	}
	if cap != nil {
		k += fmt.Sprintf("|cap=%+v", *cap)
	}
	return k
}

// key returns the journal identity of one point.
func (s *Supervisor) key(j gpu.Job) string {
	return PointKey(j, s.Health.Chaos, s.Health.PowerCap)
}

func (s *Supervisor) progressf(format string, args ...interface{}) {
	if s.Progress == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(s.Progress, format, args...)
}

// canceled reports whether err stems from the caller's context, which must
// neither be retried nor journaled (the point didn't fail — the sweep was
// told to stop, possibly mid-simulation with a half-finished result).
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// transient reports whether err is worth retrying: only wall-clock deadline
// overruns qualify (host contention passes; deterministic failures recur).
func transient(err error) bool {
	var de *health.DeadlineError
	return errors.As(err, &de)
}

// RunAll executes the batch across the worker pool and returns results in
// job order, errs[i] non-nil where point i failed. Partial results are a
// hard guarantee: every point is attempted (or skipped via the journal)
// regardless of earlier failures, and a panicking point becomes its own
// *health.SimError. Root dcl1.RunMany is this pool with no retries or journal.
func (s *Supervisor) RunAll(jobs []gpu.Job) ([]gpu.Results, []error) {
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	out := make([]gpu.Results, len(jobs))
	errs := make([]error, len(jobs))
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
				out[i], errs[i] = s.RunOne(jobs[i])
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

// RunOne executes a single point with the full supervision stack (journal
// skip, panic barrier, retry, per-simulation deadline, journal record).
func (s *Supervisor) RunOne(j gpu.Job) (gpu.Results, error) {
	ctx := s.Health.Ctx
	name, app := j.D.Name(), gpu.SafeLabel(j.App)
	key := s.key(j)
	if r, ok := s.Journal.Done(key); ok {
		s.progressf("  skip %-16s %-14s (journaled)\n", name, app)
		return r, nil
	}
	for attempt := 0; ; attempt++ {
		if ctx != nil && ctx.Err() != nil {
			return gpu.Results{}, fmt.Errorf("experiments: point %s/%s canceled before start: %w",
				name, app, ctx.Err())
		}
		r, err := runGuarded(j, s.Health)
		if err == nil {
			s.Journal.Record(key, r, nil)
			s.progressf("  ran %-16s %-14s IPC=%.2f miss=%.2f\n", name, app, r.IPC, r.L1MissRate)
			return r, nil
		}
		if canceled(err) {
			return gpu.Results{}, err
		}
		if transient(err) && attempt < s.Retry.Retries {
			s.progressf("  retry %-16s %-14s attempt %d/%d: %v\n",
				name, app, attempt+2, s.Retry.Retries+1, err)
			if serr := SleepCtx(ctx, retryDelay(attempt)); serr != nil {
				return gpu.Results{}, fmt.Errorf("experiments: point %s/%s canceled during retry backoff: %w",
					name, app, serr)
			}
			continue
		}
		s.Journal.Record(key, gpu.Results{}, err)
		s.progressf("  FAILED %-16s %-14s %v\n", name, app, err)
		return gpu.Results{}, err
	}
}

// SleepCtx sleeps for d but returns early with ctx.Err() if ctx is canceled
// first, so a shutting-down sweep or lease worker never stays parked in a
// retry backoff. A nil ctx sleeps unconditionally.
func SleepCtx(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runGuarded is one attempt behind a panic barrier: gpu.RunChecked already
// recovers simulation panics, so this only catches what escapes it (e.g. a
// misbehaving workload source), converting it into the same typed error.
func runGuarded(j gpu.Job, h gpu.HealthOptions) (r gpu.Results, err error) {
	defer func() {
		if p := recover(); p != nil {
			r = gpu.Results{}
			err = &health.SimError{
				Design: j.D.Name(),
				App:    gpu.SafeLabel(j.App),
				Cause:  p,
				Stack:  string(debug.Stack()),
			}
		}
	}()
	return gpu.RunChecked(j.Cfg, j.D, j.App, h)
}

// WriteFailureTable renders the failed points of a finished sweep as an
// aligned table and returns how many there were. Zero failures writes
// nothing. The caller pairs this with whatever partial results it produced:
// degrade loudly, never abort.
func WriteFailureTable(w io.Writer, failures []Failure) int {
	if len(failures) == 0 {
		return 0
	}
	fmt.Fprintf(w, "\n%d point(s) failed:\n", len(failures))
	fmt.Fprintf(w, "  %-20s %-16s %s\n", "DESIGN", "APP", "ERROR")
	for _, f := range failures {
		fmt.Fprintf(w, "  %-20s %-16s %v\n", f.Design, f.App, f.Err)
	}
	return len(failures)
}

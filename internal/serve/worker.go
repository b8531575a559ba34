package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"dcl1sim/internal/experiments"
	"dcl1sim/internal/gpu"
	"dcl1sim/internal/metrics"
)

// Transport is the lease protocol as a worker speaks it. farm.Client carries
// it over HTTP to a remote coordinator; localTransport calls the lease
// handlers of the server a local worker belongs to. A transport reports a
// dead lease as ErrUnknownLease and a retryable failure as *TransientError;
// any other error is permanent.
type Transport interface {
	Acquire(ctx context.Context, worker string, max int) (LeaseGrant, error)
	Heartbeat(ctx context.Context, id string) (time.Duration, error)
	Complete(ctx context.Context, id string, ups []LeaseCompletion) ([]CompletionStatus, error)
	Release(ctx context.Context, id string, tokens []string) (int, error)
}

// TransientError wraps a retryable transport failure — a network error, a
// 429, a 503, or any other 5xx — with the server's backoff hint when it sent
// one. The worker retries these with jittered exponential backoff.
type TransientError struct {
	Op         string
	RetryAfter time.Duration
	Err        error
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("%s: transient: %v", e.Op, e.Err)
}

func (e *TransientError) Unwrap() error { return e.Err }

// WorkerOptions configures a lease Worker.
type WorkerOptions struct {
	// Name identifies the worker in /statz and the server's journal (it
	// carries no authority).
	Name string
	// MaxPoints caps one lease grant (0 = server default).
	MaxPoints int
	// Health seeds the per-point simulation options (stall window,
	// deadline); the worker fills Ctx, and the spec's chaos and cap through
	// SweepSpec.Arm, per point. Simulation results are bit-identical for any
	// of these knobs.
	Health gpu.HealthOptions
	// Retry configures the per-point supervisor.
	Retry experiments.RetryPolicy
	// Progress, when non-nil, receives the supervisor's per-point lines and
	// the worker's lease-lifecycle lines.
	Progress io.Writer
}

// WorkerStats is a snapshot of a worker's lifetime counters.
type WorkerStats struct {
	Leases     int
	Points     int // points simulated to a terminal outcome
	Uploaded   int // completions the server recorded
	Duplicates int // idempotent no-op uploads
	Stale      int // uploads fenced by the server
	Failed     int // points whose simulation failed
	Released   int // unstarted points returned on drain
	LeasesLost int // leases that expired under us mid-run
}

// Worker is the one point lifecycle: acquire a lease, run its points under
// the experiments supervisor, upload each result, heartbeat meanwhile, and
// release what it never started when told to drain. It runs as a farm
// worker (dcl1worker) and as each of the server's local workers.
//
// Robustness contract: cancelling Run's context lets the in-flight point
// finish and upload, then releases every unstarted point back to the queue;
// a lost lease (missed heartbeats, server restart) abandons the remaining
// points immediately — the server has already requeued them, and whatever
// this worker still computes is fenced or deduped on upload.
type Worker struct {
	opt WorkerOptions
	tr  Transport
	// simCtx parents every simulation: only lease loss cancels a farm
	// worker's point, while a local worker's also ends when its server is
	// killed.
	simCtx context.Context
	// prepare, set on local workers, fits a granted point's supervisor with
	// what travels in process only (the job's metrics sink, the test hook).
	prepare func(lp LeasePoint, sup *experiments.Supervisor)

	mu    sync.Mutex
	stats WorkerStats
}

// NewWorker builds a worker that speaks the lease protocol over tr.
func NewWorker(tr Transport, opt WorkerOptions) *Worker {
	return &Worker{opt: opt, tr: tr, simCtx: context.Background()}
}

// Stats returns a snapshot of the lifetime counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

func (w *Worker) count(f func(*WorkerStats)) {
	w.mu.Lock()
	f(&w.stats)
	w.mu.Unlock()
}

func (w *Worker) progressf(format string, args ...interface{}) {
	if w.opt.Progress != nil {
		fmt.Fprintf(w.opt.Progress, "%s: %s", w.opt.Name, fmt.Sprintf(format, args...))
	}
}

// Run is the worker's main loop: acquire a lease, run its points, repeat.
// It returns nil on a graceful drain (ctx canceled) and an error only on a
// permanent protocol failure (bad server URL, rejected auth). Transient
// trouble — the server restarting, the network flapping, 429 backpressure —
// is retried with jittered exponential backoff forever; a worker's job is to
// outlive it.
func (w *Worker) Run(ctx context.Context) error {
	attempt := 0
	for ctx.Err() == nil {
		g, err := w.tr.Acquire(ctx, w.opt.Name, w.opt.MaxPoints)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			var te *TransientError
			if !errors.As(err, &te) {
				return err
			}
			d := backoff(w.opt.Name, attempt, te.RetryAfter)
			w.progressf("%v; retrying in %v\n", err, d.Round(time.Millisecond))
			attempt++
			experiments.SleepCtx(ctx, d)
			continue
		}
		attempt = 0
		if g.ID == "" {
			// Nothing pending: poll again after the server's jittered hint.
			d := time.Duration(g.PollAfterSeconds * float64(time.Second))
			if d <= 0 {
				d = time.Second
			}
			experiments.SleepCtx(ctx, d)
			continue
		}
		w.count(func(s *WorkerStats) { s.Leases++ })
		w.progressf("lease %s: %d point(s), ttl %.1fs\n", g.ID, len(g.Points), g.TTLSeconds)
		w.RunLease(ctx, g)
	}
	return nil
}

// RunLease executes one grant. The simulation context is deliberately NOT
// the drain context: a drain must let the current point finish and upload
// (its lease is still live), so only lease loss — or, on a local worker, the
// server being killed — cancels simulations.
func (w *Worker) RunLease(drainCtx context.Context, g LeaseGrant) {
	leaseCtx, leaseLost := context.WithCancel(w.simCtx)
	defer leaseLost()
	hbDone := make(chan struct{})
	defer func() { <-hbDone }()
	stopHB := make(chan struct{})
	defer close(stopHB)
	go w.heartbeat(g, leaseLost, stopHB, hbDone)

	for i, lp := range g.Points {
		if leaseCtx.Err() != nil {
			// Lease lost: the server requeued the rest. Abandon silently —
			// anything we'd upload now is fenced or deduped anyway.
			w.count(func(s *WorkerStats) { s.LeasesLost++ })
			w.progressf("lease %s lost; abandoning %d point(s)\n", g.ID, len(g.Points)-i)
			return
		}
		if drainCtx.Err() != nil {
			w.release(g, g.Points[i:])
			return
		}
		comp, ok := w.runPoint(leaseCtx, lp)
		if !ok {
			// Canceled mid-simulation by lease loss; next iteration reports.
			continue
		}
		w.count(func(s *WorkerStats) {
			s.Points++
			if !comp.OK {
				s.Failed++
			}
		})
		w.upload(leaseCtx, g.ID, comp)
	}
}

// heartbeat renews the lease at a third of its TTL until stopped, canceling
// the lease context the moment the server fences us. Transient heartbeat
// failures are simply retried on the next tick — the TTL is the real
// deadline, and the server's reaper is the arbiter.
func (w *Worker) heartbeat(g LeaseGrant, leaseLost context.CancelFunc, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	period := time.Duration(g.TTLSeconds / 3 * float64(time.Second))
	if period < 50*time.Millisecond {
		period = 50 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			ctx, cancel := context.WithTimeout(context.Background(), period)
			_, err := w.tr.Heartbeat(ctx, g.ID)
			cancel()
			if errors.Is(err, ErrUnknownLease) {
				leaseLost()
				return
			}
		}
	}
}

// runPoint simulates one leased point under the full supervision stack
// (panic barrier, retries, per-simulation deadline). ok=false means the
// simulation was canceled by lease loss and there is nothing to upload.
func (w *Worker) runPoint(leaseCtx context.Context, lp LeasePoint) (LeaseCompletion, bool) {
	comp := LeaseCompletion{Token: lp.Token, Epoch: lp.Epoch}
	// Revalidate the spec through the public parser: the server's specs are
	// canonical, but a worker must not panic on a corrupt or hostile one.
	spec, err := ParseSweepSpec(lp.Spec.Encode())
	if err != nil {
		comp.Err = fmt.Sprintf("bad leased spec: %v", err)
		return comp, true
	}
	pts := spec.Points()
	if len(pts) != 1 {
		comp.Err = fmt.Sprintf("leased spec expands to %d points, want 1", len(pts))
		return comp, true
	}
	if pts[0].Err != nil {
		comp.Err = pts[0].Err.Error()
		return comp, true
	}
	h := w.opt.Health
	h.Ctx = leaseCtx
	sup := &experiments.Supervisor{Health: spec.Arm(h), Retry: w.opt.Retry, Progress: w.opt.Progress}
	if w.prepare != nil {
		w.prepare(lp, sup)
	}
	res, err := sup.RunOne(pts[0].Job)
	if err != nil {
		if leaseCtx.Err() != nil {
			return comp, false
		}
		comp.Err = err.Error()
		return comp, true
	}
	comp.OK = true
	comp.Result = &res
	return comp, true
}

// upload pushes one completion with jittered exponential backoff on
// transient errors, giving up only when the lease dies (the server owns the
// point again) — a completed simulation is too expensive to drop on a
// network blip.
func (w *Worker) upload(leaseCtx context.Context, leaseID string, comp LeaseCompletion) {
	for attempt := 0; ; attempt++ {
		sts, err := w.tr.Complete(leaseCtx, leaseID, []LeaseCompletion{comp})
		switch {
		case err == nil:
			status := "?"
			if len(sts) == 1 {
				status = sts[0].Status
			}
			w.count(func(s *WorkerStats) {
				switch status {
				case CompletionRecorded:
					s.Uploaded++
				case CompletionDuplicate:
					s.Duplicates++
				default:
					s.Stale++
				}
			})
			w.progressf("point %s %s\n", comp.Token, status)
			return
		case errors.Is(err, ErrUnknownLease):
			w.count(func(s *WorkerStats) { s.Stale++ })
			return
		case leaseCtx.Err() != nil:
			return
		}
		var te *TransientError
		if !errors.As(err, &te) {
			// Permanent protocol failure: surface and drop (the lease will
			// expire and the point re-runs elsewhere).
			w.progressf("upload %s: %v\n", comp.Token, err)
			return
		}
		d := backoff(w.opt.Name, attempt, te.RetryAfter)
		w.progressf("upload %s: %v; retrying in %v\n", comp.Token, te.Err, d.Round(time.Millisecond))
		if experiments.SleepCtx(leaseCtx, d) != nil {
			return
		}
	}
}

// release returns unstarted points to the server on drain, best-effort with
// a short deadline (the lease TTL covers us if the call fails).
func (w *Worker) release(g LeaseGrant, rest []LeasePoint) {
	tokens := make([]string, len(rest))
	for i, lp := range rest {
		tokens[i] = lp.Token
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n, err := w.tr.Release(ctx, g.ID, tokens)
	if err != nil {
		w.progressf("drain release of %d point(s) failed (%v); lease TTL will requeue them\n", len(tokens), err)
		return
	}
	w.count(func(s *WorkerStats) { s.Released += n })
	w.progressf("drain: released %d unstarted point(s)\n", n)
}

// backoff is the worker's retry delay: exponential from 200ms capped at 5s,
// spread by a deterministic per-(name, attempt) jitter of up to +50%, and
// never shorter than the server's Retry-After hint.
func backoff(name string, attempt int, hint time.Duration) time.Duration {
	d := 200 * time.Millisecond
	for i := 0; i < attempt && d < 5*time.Second; i++ {
		d *= 2
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	d += time.Duration(float64(d) * 0.5 * float64(fnv64(fmt.Sprintf("%s/%d", name, attempt))%1024) / 1024)
	if d < hint {
		d = hint
	}
	return d
}

// localTransport is the lease protocol without the wire: the server's own
// workers call its lease handlers directly. It keeps the HTTP API's error
// mapping (a refused grant is transient, a dead lease ErrUnknownLease) but
// never answers an empty grant: Acquire waits for the server's wake signal,
// so an idle local worker costs nothing and a new point starts at once.
type localTransport struct{ s *Server }

func (t localTransport) Acquire(ctx context.Context, worker string, max int) (LeaseGrant, error) {
	for {
		g, wake, err := t.s.acquire(worker, max, true)
		if err != nil {
			var ae *AdmissionError
			hint := time.Duration(0)
			if errors.As(err, &ae) {
				hint = ae.RetryAfter
			}
			return g, &TransientError{Op: "acquire lease", RetryAfter: hint, Err: err}
		}
		if g.ID != "" {
			return g, nil
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return g, ctx.Err()
		}
	}
}

func (t localTransport) Heartbeat(_ context.Context, id string) (time.Duration, error) {
	ttl, ok := t.s.RenewLease(id)
	if !ok {
		return 0, ErrUnknownLease
	}
	return ttl, nil
}

func (t localTransport) Complete(_ context.Context, id string, ups []LeaseCompletion) ([]CompletionStatus, error) {
	return t.s.CompleteLeasePoints(id, ups)
}

func (t localTransport) Release(_ context.Context, id string, tokens []string) (int, error) {
	n, ok := t.s.ReleaseLease(id, tokens)
	if !ok {
		return 0, ErrUnknownLease
	}
	return n, nil
}

// startLocalWorkers starts Options.Workers lease workers over localTransport.
// Each asks for one point per grant, so dispatch stays per-point round-robin
// across tenants; Drain ends their loops, and their simulations derive from
// runCtx, so Kill abandons in-flight points un-journaled.
func (s *Server) startLocalWorkers() {
	for i := 0; i < s.opt.Workers; i++ {
		w := NewWorker(localTransport{s}, WorkerOptions{
			Name:      fmt.Sprintf("local-%d", i),
			MaxPoints: 1,
			Health:    s.opt.Health,
			Retry:     s.opt.Retry,
			Progress:  s.opt.Progress,
		})
		w.simCtx, w.prepare = s.runCtx, s.prepareLocal
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			// localTransport's errors are all transient, so Run ends only
			// when Drain cancels drainCtx, and then returns nil.
			w.Run(s.drainCtx)
		}()
	}
}

// prepareLocal fires the test hook and attaches the job's live-metrics sink,
// which travels in process only: remote points stream none.
func (s *Server) prepareLocal(lp LeasePoint, sup *experiments.Supervisor) {
	if s.beforePoint != nil {
		s.beforePoint(lp.local)
	}
	if jm := lp.local.job.metrics; jm != nil {
		sup.Health.Metrics = &metrics.Options{Every: s.opt.MetricsEvery, Sink: jm}
	}
}

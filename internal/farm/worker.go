package farm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"dcl1sim/internal/experiments"
	"dcl1sim/internal/gpu"
	"dcl1sim/internal/serve"
)

// Options configures a Worker.
type Options struct {
	// Server is the dcl1serve base URL; Token the bearer token when the
	// server requires auth.
	Server string
	Token  string
	// Name identifies the worker in /statz and the server's journal (it
	// carries no authority). Required.
	Name string
	// MaxPoints caps one lease grant (0 = server default).
	MaxPoints int
	// Health seeds the per-point simulation options (stall window,
	// deadline); the worker fills Ctx and the spec's chaos per point, through
	// the same SweepSpec.Points the server admits with. Simulation results
	// are bit-identical for any of these knobs, so a farm worker and the
	// server's local pool can disagree on all of them.
	Health gpu.HealthOptions
	// Retry and PointDeadline configure the per-point supervisor exactly as
	// the server's local pool does.
	Retry         experiments.RetryPolicy
	PointDeadline time.Duration
	// Progress, when non-nil, receives the supervisor's per-point lines and
	// the worker's lease-lifecycle lines.
	Progress io.Writer
}

// Stats is a snapshot of the worker's lifetime counters.
type Stats struct {
	Leases     int
	Points     int // points simulated to a terminal outcome
	Uploaded   int // completions the server recorded
	Duplicates int // idempotent no-op uploads
	Stale      int // uploads fenced by the server
	Failed     int // points whose simulation failed
	Released   int // unstarted points returned on drain
	LeasesLost int // leases that expired under us mid-run
}

// Worker pulls leases from a dcl1serve coordinator and runs their points.
// Robustness contract: SIGTERM (context cancellation) lets the in-flight
// point finish and upload, then releases every unstarted point back to the
// queue; a lost lease (missed heartbeats, server restart) abandons the
// remaining points immediately — the server has already requeued them, and
// whatever this worker still computes is fenced or deduped on upload.
type Worker struct {
	opt    Options
	client *Client

	mu    sync.Mutex
	stats Stats
}

// New builds a Worker. The options are validated lazily by Run.
func New(opt Options) *Worker {
	return &Worker{
		opt:    opt,
		client: &Client{Base: opt.Server, Token: opt.Token},
	}
}

// Stats returns a snapshot of the lifetime counters.
func (w *Worker) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

func (w *Worker) count(f func(*Stats)) {
	w.mu.Lock()
	f(&w.stats)
	w.mu.Unlock()
}

func (w *Worker) progressf(format string, args ...interface{}) {
	if w.opt.Progress != nil {
		fmt.Fprintf(w.opt.Progress, format, args...)
	}
}

// Run is the worker's main loop: acquire a lease, run its points, repeat.
// It returns nil on a graceful drain (ctx canceled) and an error only on a
// permanent protocol failure (bad server URL, rejected auth). Transient
// trouble — the server restarting, the network flapping, 429 backpressure —
// is retried with jittered exponential backoff forever; a farm worker's job
// is to outlive it.
func (w *Worker) Run(ctx context.Context) error {
	if w.opt.Server == "" {
		return errors.New("farm: no server URL")
	}
	if w.opt.Name == "" {
		return errors.New("farm: no worker name")
	}
	attempt := 0
	for {
		if ctx.Err() != nil {
			return nil
		}
		g, err := w.client.Acquire(ctx, w.opt.Name, w.opt.MaxPoints)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			var te *TransientError
			if !errors.As(err, &te) {
				return err
			}
			d := backoff(w.opt.Name, attempt, te.RetryAfter)
			w.progressf("farm: %v; retrying in %v\n", err, d.Round(time.Millisecond))
			attempt++
			if sleepCtx(ctx, d) != nil {
				return nil
			}
			continue
		}
		attempt = 0
		if g.ID == "" {
			// Nothing pending: poll again after the server's jittered hint.
			d := time.Duration(g.PollAfterSeconds * float64(time.Second))
			if d <= 0 {
				d = time.Second
			}
			if sleepCtx(ctx, d) != nil {
				return nil
			}
			continue
		}
		w.count(func(s *Stats) { s.Leases++ })
		w.progressf("farm: lease %s: %d point(s), ttl %.1fs\n", g.ID, len(g.Points), g.TTLSeconds)
		w.runLease(ctx, g)
	}
}

// runLease executes one grant. The simulation context is deliberately NOT
// the drain context: SIGTERM must let the current point finish and upload
// (its lease is still live), so only lease loss cancels simulations.
func (w *Worker) runLease(drainCtx context.Context, g serve.LeaseGrant) {
	leaseCtx, leaseLost := context.WithCancel(context.Background())
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
			w.count(func(s *Stats) { s.LeasesLost++ })
			w.progressf("farm: lease %s lost; abandoning %d point(s)\n", g.ID, len(g.Points)-i)
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
		w.count(func(s *Stats) {
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
func (w *Worker) heartbeat(g serve.LeaseGrant, leaseLost context.CancelFunc, stop <-chan struct{}, done chan<- struct{}) {
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
			_, err := w.client.Heartbeat(ctx, g.ID)
			cancel()
			if errors.Is(err, ErrLeaseLost) {
				leaseLost()
				return
			}
		}
	}
}

// runPoint simulates one leased point under the full supervision stack
// (panic barrier, retries, per-point deadline). ok=false means the
// simulation was canceled by lease loss and there is nothing to upload.
func (w *Worker) runPoint(leaseCtx context.Context, lp serve.LeasePoint) (serve.LeaseCompletion, bool) {
	comp := serve.LeaseCompletion{Token: lp.Token, Epoch: lp.Epoch}
	// Revalidate the spec through the public parser: the server's specs are
	// canonical, but a worker must not panic on a corrupt or hostile one.
	spec, err := serve.ParseSweepSpec(lp.Spec.Encode())
	if err != nil {
		comp.Err = fmt.Sprintf("bad leased spec: %v", err)
		return comp, true
	}
	base := w.opt.Health
	base.Ctx = leaseCtx
	h, pts := spec.Points(base)
	if len(pts) != 1 {
		comp.Err = fmt.Sprintf("leased spec expands to %d points, want 1", len(pts))
		return comp, true
	}
	if pts[0].Err != nil {
		comp.Err = pts[0].Err.Error()
		return comp, true
	}
	sup := &experiments.Supervisor{
		Health:        h,
		Retry:         w.opt.Retry,
		PointDeadline: w.opt.PointDeadline,
		Progress:      w.opt.Progress,
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
func (w *Worker) upload(leaseCtx context.Context, leaseID string, comp serve.LeaseCompletion) {
	for attempt := 0; ; attempt++ {
		sts, err := w.client.Complete(leaseCtx, leaseID, []serve.LeaseCompletion{comp})
		switch {
		case err == nil:
			status := "?"
			if len(sts) == 1 {
				status = sts[0].Status
			}
			w.count(func(s *Stats) {
				switch status {
				case serve.CompletionRecorded:
					s.Uploaded++
				case serve.CompletionDuplicate:
					s.Duplicates++
				default:
					s.Stale++
				}
			})
			w.progressf("farm: point %s %s\n", comp.Token, status)
			return
		case errors.Is(err, ErrLeaseLost):
			w.count(func(s *Stats) { s.Stale++ })
			return
		case leaseCtx.Err() != nil:
			return
		}
		var te *TransientError
		if !errors.As(err, &te) {
			// Permanent protocol failure: surface and drop (the lease will
			// expire and the point re-runs elsewhere).
			w.progressf("farm: upload %s: %v\n", comp.Token, err)
			return
		}
		d := backoff(w.opt.Name, attempt, te.RetryAfter)
		w.progressf("farm: upload %s: %v; retrying in %v\n", comp.Token, te.Err, d.Round(time.Millisecond))
		if sleepCtx(leaseCtx, d) != nil {
			return
		}
	}
}

// release returns unstarted points to the server on drain, best-effort with
// a short deadline (the lease TTL covers us if the call fails).
func (w *Worker) release(g serve.LeaseGrant, rest []serve.LeasePoint) {
	tokens := make([]string, len(rest))
	for i, lp := range rest {
		tokens[i] = lp.Token
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n, err := w.client.Release(ctx, g.ID, tokens)
	if err != nil {
		w.progressf("farm: drain release of %d point(s) failed (%v); lease TTL will requeue them\n", len(tokens), err)
		return
	}
	w.count(func(s *Stats) { s.Released += n })
	w.progressf("farm: drain: released %d unstarted point(s)\n", n)
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

// fnv64 is the FNV-1a hash of s.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// sleepCtx sleeps for d unless ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

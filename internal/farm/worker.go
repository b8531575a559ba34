package farm

import (
	"context"
	"errors"
	"io"

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
	// deadline); the worker fills Ctx, and the spec's chaos and cap through
	// SweepSpec.Arm, per point. Simulation results are bit-identical for any
	// of these knobs, so a farm worker and the server's local workers can
	// disagree on all of them.
	Health gpu.HealthOptions
	// Retry configures the per-point supervisor exactly as the server's
	// local workers do.
	Retry experiments.RetryPolicy
	// Progress, when non-nil, receives the supervisor's per-point lines and
	// the worker's lease-lifecycle lines.
	Progress io.Writer
}

// Stats is a snapshot of the worker's lifetime counters.
type Stats = serve.WorkerStats

// Worker pulls leases from a dcl1serve coordinator over HTTP and runs their
// points: serve.Worker, the server's own point lifecycle, over a Client.
// SIGTERM (context cancellation) lets the in-flight point finish and upload,
// then releases every unstarted point back to the queue; a lost lease
// abandons the remaining points immediately.
type Worker struct {
	opt    Options
	client *Client
	w      *serve.Worker
}

// New builds a Worker. The options are validated lazily by Run.
func New(opt Options) *Worker {
	c := &Client{Base: opt.Server, Token: opt.Token}
	return &Worker{opt: opt, client: c, w: serve.NewWorker(c, serve.WorkerOptions{
		Name:      opt.Name,
		MaxPoints: opt.MaxPoints,
		Health:    opt.Health,
		Retry:     opt.Retry,
		Progress:  opt.Progress,
	})}
}

// Stats returns a snapshot of the lifetime counters.
func (w *Worker) Stats() Stats { return w.w.Stats() }

// Run is the worker's main loop (serve.Worker.Run): nil on a graceful drain,
// an error only on a permanent protocol failure.
func (w *Worker) Run(ctx context.Context) error {
	if w.opt.Server == "" {
		return errors.New("farm: no server URL")
	}
	if w.opt.Name == "" {
		return errors.New("farm: no worker name")
	}
	return w.w.Run(ctx)
}

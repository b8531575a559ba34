package sim

import (
	"context"
	"errors"
	"testing"

	"dcl1sim/internal/health"
)

func TestRunUntilCheckedContextPreCanceled(t *testing.T) {
	e := NewEngine()
	clk := e.NewClock("core", 1000)
	clk.Register(TickFunc(func(Cycle) {}))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := e.RunUntilChecked(clk, 1_000_000, RunOptions{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if clk.Now() != 0 {
		t.Fatalf("pre-canceled run advanced to cycle %d", clk.Now())
	}
}

func TestRunUntilCheckedContextMidRun(t *testing.T) {
	// A component cancels the context partway through; the run must stop at
	// the next watchdog slice, well before the target cycle.
	e := NewEngine()
	clk := e.NewClock("core", 1000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 10_000
	clk.Register(TickFunc(func(c Cycle) {
		if c == cancelAt {
			cancel()
		}
	}))
	err := e.RunUntilChecked(clk, 1_000_000, RunOptions{Ctx: ctx, StallWindow: 4000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if clk.Now() <= cancelAt || clk.Now() >= 1_000_000 {
		t.Fatalf("canceled run stopped at cycle %d, want just past %d", clk.Now(), cancelAt)
	}
}

func TestRunUntilCheckedContextMidSlice(t *testing.T) {
	// With a stall window far beyond the target there is only one watchdog slice,
	// so slice-top checks alone would notice the cancellation only at the end.
	// The engine polls the context every few thousand edges inside RunUntil,
	// so the abort must land promptly after the cancel, not at the target.
	e := NewEngine()
	clk := e.NewClock("core", 1000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 1000
	clk.Register(TickFunc(func(c Cycle) {
		if c == cancelAt {
			cancel()
		}
	}))
	err := e.RunUntilChecked(clk, 1_000_000, RunOptions{Ctx: ctx, StallWindow: 40_000_000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if clk.Now() <= cancelAt || clk.Now() >= 20_000 {
		t.Fatalf("canceled run stopped at cycle %d, want shortly after %d", clk.Now(), cancelAt)
	}
}

func TestRunUntilCheckedContextHealthy(t *testing.T) {
	// A live context must not perturb a healthy run: same landing cycle as an
	// unchecked run, no error.
	e := NewEngine()
	clk := e.NewClock("core", 1400)
	var count int64
	clk.Register(TickFunc(func(Cycle) { count++ }))
	m := health.NewMonitor()
	m.AddProbe(health.Probe{Name: "counter", Sample: func() int64 { return count }})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := e.RunUntilChecked(clk, 20_000, RunOptions{Ctx: ctx, Monitor: m}); err != nil {
		t.Fatalf("healthy run with live context errored: %v", err)
	}
	if clk.Now() != 20_000 || count != 20_000 {
		t.Fatalf("cycle %d count %d, want 20000", clk.Now(), count)
	}
}

// countingCtx counts the calls to Err: how often a run checks for
// cancellation.
type countingCtx struct {
	context.Context
	errs int
}

func (c *countingCtx) Err() error {
	c.errs++
	return c.Context.Err()
}

// Turning deadlock detection off (a negative stall window) must not shrink
// the slices: the run still checks its context, deadline and wake audit every
// DefaultStallWindow/8 cycles, not on every reference cycle.
func TestRunUntilCheckedWatchdogOffSlices(t *testing.T) {
	const cycles = 100_000
	for _, window := range []Cycle{0, -1} {
		e := NewEngine()
		clk := e.NewClock("core", 1000)
		clk.Register(TickFunc(func(Cycle) {}))
		ctx := &countingCtx{Context: context.Background()}
		if err := e.RunUntilChecked(clk, cycles, RunOptions{Ctx: ctx, StallWindow: window}); err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		// One check per slice, plus the edge loop's polls.
		if most := cycles/(DefaultStallWindow/8) + cycles/ctxPollEdges + 1; ctx.errs > int(most) {
			t.Errorf("window %d: the context was checked %d times in %d cycles, want at most %d",
				window, ctx.errs, cycles, most)
		}
	}
}

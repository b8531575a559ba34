// Package sim provides the deterministic cycle-level simulation engine used
// by every other component of dcl1sim: multi-rate clock domains with exact
// (drift-free) tick scheduling, bounded FIFO queues with backpressure, fixed
// delay pipes, and a small deterministic RNG.
//
// The engine runs on one goroutine, and is deterministic by construction
// rather than by the order it happens to visit components in: cross-component
// communication goes through two-phase Ports (staged pushes become visible
// only at the owning clock's edge barrier), so the order components tick
// within an edge cannot influence results (see DESIGN.md §11). That is what
// lets the active set tick only the awake components of an edge, and the
// always-tick reference (SetFastPath(false)) tick all of them, and agree bit
// for bit. Parallelism lives one level up, across independent runs (the sweep
// workers).
package sim

import (
	"context"
	"fmt"
	"time"

	"dcl1sim/internal/health"
)

// Cycle counts clock edges of a particular clock domain.
type Cycle = int64

// Ticker is a component driven by a Clock. Tick is invoked once per cycle of
// the owning clock, with that clock's local cycle number.
type Ticker interface {
	Tick(cycle Cycle)
}

// TickFunc adapts a plain function to the Ticker interface.
type TickFunc func(cycle Cycle)

// Tick implements Ticker.
func (f TickFunc) Tick(cycle Cycle) { f(cycle) }

// WakeNever is the NextWorkCycle result meaning "no internally scheduled
// work": the component stays asleep until external input (a queue push from
// another component) gives it something to do.
const WakeNever Cycle = 1 << 62

// Sleeper is an optional Ticker extension for the quiescence fast path.
// NextWorkCycle reports the earliest cycle of the owning clock at which the
// component could possibly do anything beyond pure idle accounting:
//
//   - a result <= now means "tick me this cycle";
//   - a result > now promises that every Tick in [now, result) would be a
//     no-op except for counters compensated by SkipIdle (the engine may skip
//     those ticks);
//   - WakeNever promises idleness until external input arrives.
//
// The promise only needs to hold under the engine's re-evaluation rule:
// NextWorkCycle is re-queried at every edge the component is considered on —
// every edge for a plain Sleeper; for one that also declares WakeSources (see
// wake.go), the edges after its timer comes due, a barrier publishes into a
// port it named the contents of, or a barrier frees a port it named the space
// of. It must be a pure function of the component's state.
type Sleeper interface {
	NextWorkCycle(now Cycle) Cycle
}

// IdleSkipper is an optional companion to Sleeper for components whose idle
// Tick still advances counters (cycle totals, stall counters, last-tick
// watermarks). SkipIdle(now, n) must reproduce exactly the counter effects of
// the n skipped idle Ticks ending at cycle now, keeping skipped runs
// bit-identical to ticked ones. The engine pays the debt lazily and in bulk:
// one call when the component next ticks, or when the engine settles (see
// Engine.Settle). Components whose idle Tick changes nothing need not
// implement it.
type IdleSkipper interface {
	SkipIdle(now Cycle, n Cycle)
}

// Clock is a named clock domain. Components registered on a clock are ticked
// in registration order. Tick k of a clock with frequency f MHz occurs at
// simulated time k*1e6/f picoseconds, computed exactly in integer arithmetic
// so that domains never accumulate drift relative to one another.
type Clock struct {
	name  string
	mhz   int64
	cycle Cycle
	comps []Ticker

	// eng is the owning engine (nil only for a bare Clock built in a test).
	eng *Engine

	// The active set (see wake.go), as bitsets over the component indices:
	// awake holds the components considered on the next edge, bound the
	// Sleepers a port commit can wake — only those leave the set. sl[i] is
	// what the edge loop reads and writes about Sleeper i, skip[i] its idle
	// compensator (nil: none needed), skipIdx the components that have one,
	// for settle.
	awake   []uint64
	bound   []uint64
	sl      []sleeperState
	skip    []IdleSkipper
	skipIdx []int32
	timers  wakeTimers
	walk    edgeWalk
	stats   WalkStats // Clock and Components are filled in by Engine.WalkStats

	// Two-phase edge barrier. ports are the attached Ports whose producers
	// tick on this clock: their staged pushes commit at the end of every
	// processed edge. The barrier visits only dirty, the ports pushed to or
	// popped from since their last commit. barriers run after the port
	// commits, in registration order (e.g. deferred replication-tracker
	// updates).
	ports    []*portHeader
	dirty    []*portHeader
	barriers []func()
}

// sleeperState is what an edge reads and writes about one Sleeper.
type sleeperState struct {
	s Sleeper

	// filed is the wake cycle the component's current sleep is on file under
	// (its timer, unless WakeNever); woken once something has woken it
	// since, so that its next edge ticks it without asking; 0 once it has
	// ticked. idleFrom is the first cycle SkipIdle has not yet covered, -1 =
	// none owed.
	filed    Cycle
	idleFrom Cycle
}

// woken is sleeperState.filed for a component woken since it was last considered.
const woken Cycle = -1

// Name returns the clock's name.
func (c *Clock) Name() string { return c.name }

// FreqMHz returns the clock frequency in MHz.
func (c *Clock) FreqMHz() int64 { return c.mhz }

// Now returns the number of completed cycles of this clock.
func (c *Clock) Now() Cycle { return c.cycle }

// nextEdgePs returns the simulated time, in picoseconds, of this clock's next
// tick. Exact: edge k happens at floor(k * 1e6 / mhz) ps.
func (c *Clock) nextEdgePs() int64 { return c.cycle * 1_000_000 / c.mhz }

// Register adds a component to this clock domain. Components tick in the
// order they were registered.
func (c *Clock) Register(t Ticker) {
	i := int32(len(c.comps))
	s, _ := t.(Sleeper)
	k, _ := t.(IdleSkipper)
	if s == nil {
		k = nil // never sleeps, so is never owed an idle cycle
	}
	c.comps = append(c.comps, t)
	c.sl = append(c.sl, sleeperState{s: s, idleFrom: -1})
	c.skip = append(c.skip, k)
	c.timers.add()
	if k != nil {
		c.skipIdx = append(c.skipIdx, i)
	}
	if int(i)>>6 == len(c.awake) {
		c.awake = append(c.awake, 0)
		c.bound = append(c.bound, 0)
	}
	c.wake(i)
	c.topologyChanged()
}

// topologyChanged drops what was derived from the set of components and
// attached ports: the engine's wake-source binding.
func (c *Clock) topologyChanged() {
	if c.eng != nil {
		c.eng.bound = false
	}
}

// Components returns how many components are registered on this clock.
func (c *Clock) Components() int { return len(c.comps) }

// Component returns the i-th component registered on this clock.
func (c *Clock) Component(i int) Ticker { return c.comps[i] }

// Holding reports whether a port attached to this clock holds a value,
// committed or staged: work in flight between two components, which the
// watchdog counts as busy.
func (c *Clock) Holding() bool {
	for _, h := range c.ports {
		if *h.size+h.nStaged > 0 {
			return true
		}
	}
	return false
}

// OnBarrier registers f to run at the end of every edge this clock
// processes, after the clock's ports have committed, in registration order —
// the hook for state several components share, whose updates must not be
// visible to one of them earlier in the edge than to another (e.g. the shared
// replication tracker applies its staged ops here).
func (c *Clock) OnBarrier(f func()) {
	c.barriers = append(c.barriers, f)
}

// commit runs the clock's port barrier: publish staged pushes, refresh the
// producer-side occupancy snapshots, wake the consumers of what was published
// and the producers of what was freed. The barrier runs on every processed
// edge — even one where no component ticked — because a consumer on another
// clock may have drained a port since the last one and the freed space has to
// reach the producer on the same schedule with the fast path on or off. A
// port nobody pushed to or popped from since its last commit has nothing to
// publish and a snapshot that is already right, so only the dirty ports are
// visited.
func (c *Clock) commit() {
	for _, h := range c.dirty {
		h.listed = false
		if h.commit() {
			if h.wclk != nil {
				h.wakeConsumer()
			}
			if h.dnote != nil {
				h.dnote.mark(h.didx)
			}
		}
		if h.relented() {
			h.wakeProducer()
		}
	}
	c.dirty = c.dirty[:0]
}

// tick advances the clock one edge. With the fast path off every component
// ticks, exactly as the legacy engine did. With it on, the edge considers only
// the active set: components whose timer came due are put back first, each
// member is polled (a plain Ticker is not — it always ticks) and either ticks
// or goes to sleep. Port visibility makes the gate order-free: a push from
// another component this edge is staged, so it cannot wake a sleeper until the
// next edge wherever the two sit in registration order.
func (c *Clock) tick(fast bool) {
	now := c.cycle
	if fast {
		c.wakeDue(now)
		c.walk.set(c, now)
		c.fileSleeps(c.walk.slept, now)
		c.stats.Ticks += int64(c.walk.ticked)
		c.stats.Polls += int64(c.walk.polled)
	} else {
		for _, t := range c.comps {
			t.Tick(now)
		}
		c.stats.Ticks += int64(len(c.comps))
	}
	c.stats.Edges++
	c.cycle++
	c.commit()
	for _, f := range c.barriers {
		f()
	}
	if wakeAuditEveryEdge {
		c.eng.auditEdge()
	}
}

// Engine owns a set of clock domains and advances them in global time order.
// Ties between clocks due at the same picosecond are broken by clock creation
// order, which keeps runs deterministic.
type Engine struct {
	clocks []*Clock
	fast   bool
	// bound records that every component's WakeSources are resolved against
	// the current set of attached ports; Register and Attach clear it.
	bound bool

	// ctx, when non-nil, lets RunUntil abandon a long stretch early: the loop
	// polls it every ctxPollEdges edges and simply stops advancing once it is
	// canceled. Set only by RunUntilChecked (which owns reporting the
	// cancellation as an error); plain RunUntil callers see no change.
	ctx context.Context
}

// ctxPollEdges is how many edges RunUntil processes between context polls: a
// watchdog slice can span millions of edges on a saturated run, so waiting
// for the slice boundary would make WithContext cancellation arbitrarily
// slow. Polling a few thousand edges apart keeps the overhead unmeasurable
// while bounding the response to well under a millisecond of work.
const ctxPollEdges = 4096

// NewEngine returns an empty engine with the quiescence fast path enabled.
func NewEngine() *Engine { return &Engine{fast: true} }

// SetFastPath toggles the quiescence fast path: considering only awake
// components on each edge, and paying sleepers their idle cycles lazily.
// Results are bit-identical either way (the legacy always-tick path exists for
// validation and benchmarking). Turning it off settles every idle debt and
// re-awakes every component, so full-tick edges start from exactly the state
// an always-tick engine would be in.
func (e *Engine) SetFastPath(on bool) {
	e.fast = on
	if !on {
		for _, c := range e.clocks {
			c.settle()
			for i := range c.sl {
				c.sl[i].idleFrom, c.sl[i].filed = -1, 0
			}
			c.wakeAll()
			c.timers.reset()
		}
	}
}

// NewClock creates and registers a clock domain with the given frequency in
// MHz. It panics if mhz is not positive: a zero-frequency clock can never
// tick and indicates a configuration bug.
func (e *Engine) NewClock(name string, mhz int64) *Clock {
	if mhz <= 0 {
		panic(fmt.Sprintf("sim: clock %q frequency must be positive, got %d", name, mhz))
	}
	c := &Clock{name: name, mhz: mhz, eng: e}
	e.clocks = append(e.clocks, c)
	return c
}

// Clocks returns the registered clock domains in creation order.
func (e *Engine) Clocks() []*Clock {
	out := make([]*Clock, len(e.clocks))
	copy(out, e.clocks)
	return out
}

// RunUntil advances simulated time until the reference clock ref has
// completed `cycles` cycles. All other clock domains advance in lockstep
// global time order. On return every component's idle-compensated counters
// are settled, so whoever reads them between runs — watchdog samples, the
// warm-up reset, audits, results — sees what an eager engine would have left.
func (e *Engine) RunUntil(ref *Clock, cycles Cycle) {
	if len(e.clocks) == 0 {
		panic("sim: RunUntil on engine with no clocks")
	}
	if !e.bound {
		e.bind()
	}
	e.advance(ref, cycles)
	e.Settle()
}

// advance is RunUntil's edge loop: find the next edge, tick it. Every edge
// of every clock is processed, in global (time, clock-order) sequence.
func (e *Engine) advance(ref *Clock, cycles Cycle) {
	poll := 0
	for ref.cycle < cycles {
		if e.ctx != nil {
			if poll++; poll >= ctxPollEdges {
				poll = 0
				if e.ctx.Err() != nil {
					return
				}
			}
		}
		next := e.clocks[0]
		nt := next.nextEdgePs()
		for _, c := range e.clocks[1:] {
			if t := c.nextEdgePs(); t < nt {
				next, nt = c, t
			}
		}
		next.tick(e.fast)
	}
}

// DefaultStallWindow is the number of reference cycles without any probe
// progress after which RunUntilChecked declares a deadlock.
const DefaultStallWindow Cycle = 10_000

// RunOptions configures the health instrumentation of RunUntilChecked.
type RunOptions struct {
	// Monitor supplies progress probes, invariant checkers, and dumpers.
	// A nil monitor (or one with no probes) disables deadlock detection;
	// the wall-clock deadline still applies.
	Monitor *health.Monitor
	// StallWindow is the deadlock window in reference cycles: if no probe
	// advances for this long while some component is busy, the run aborts
	// with a *health.DeadlockError. 0 selects DefaultStallWindow; negative
	// disables deadlock detection.
	StallWindow Cycle
	// Deadline bounds the wall-clock time of the run; exceeding it aborts
	// with a *health.DeadlineError. 0 means no deadline.
	Deadline time.Duration
	// Ctx, when non-nil, is checked between engine slices: a canceled
	// context aborts the run with an error wrapping ctx.Err(), so sweeps can
	// be stopped cleanly instead of only by wall-clock deadline.
	Ctx context.Context
}

func (o RunOptions) withDefaults() RunOptions {
	if o.StallWindow == 0 {
		o.StallWindow = DefaultStallWindow
	}
	return o
}

// slice returns RunUntilChecked's slice length in reference cycles: an eighth
// of the stall window (at least one cycle), or of DefaultStallWindow when a
// negative window turns deadlock detection off, so the audit, the Settle and
// the deadline and context checks between slices cost the same either way.
func (o RunOptions) slice() Cycle {
	w := o.StallWindow
	if w < 0 {
		w = DefaultStallWindow
	}
	return max(w/8, 1)
}

// ClockStates snapshots every clock domain for a diagnostic dump.
func (e *Engine) ClockStates() []health.ClockState {
	out := make([]health.ClockState, 0, len(e.clocks))
	for _, c := range e.clocks {
		out = append(out, health.ClockState{Name: c.name, FreqMHz: c.mhz, Cycle: c.cycle})
	}
	return out
}

// RunUntilChecked is RunUntil under a progress watchdog: it advances the
// engine in slices of an eighth of the stall window, sampling the
// monitor's probes between slices. If no probe advances for a full stall
// window while some probed component still has pending work, it aborts with
// a *health.DeadlockError carrying a diagnostic dump; a wall-clock deadline
// overrun aborts with a *health.DeadlineError.
//
// Every slice also ends with the engine's wake audit (CheckInvariants): a
// violation aborts with a *health.InvariantError. The last slice ends where
// the run does, so a completed run has passed its final audit.
//
// The slicing only changes where the host observes the simulation, never the
// order components tick in, so a healthy run produces results bit-identical
// to RunUntil.
func (e *Engine) RunUntilChecked(ref *Clock, cycles Cycle, opts RunOptions) error {
	opts = opts.withDefaults()
	slice := opts.slice()
	if opts.Ctx != nil {
		// Arm mid-slice polling: RunUntil returns early once the context is
		// canceled, and the slice-top check below reports the error.
		e.ctx = opts.Ctx
		defer func() { e.ctx = nil }()
	}
	start := time.Now()
	lastProgress := ref.cycle
	watch := opts.Monitor != nil && opts.Monitor.Probes() > 0 && opts.StallWindow > 0
	if watch {
		opts.Monitor.Advanced() // prime the baseline
		opts.Monitor.Observe(ref.cycle)
	}
	for ref.cycle < cycles {
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return fmt.Errorf("sim: run canceled at %s cycle %d: %w", ref.name, ref.cycle, err)
			}
		}
		target := ref.cycle + slice
		if target > cycles {
			target = cycles
		}
		e.RunUntil(ref, target)
		// The engine's own books first: a component asleep with work to do
		// is the likeliest cause of whatever the probes would report next.
		if v := e.CheckInvariants(); len(v) > 0 {
			dump := &health.Dump{Reason: "wake-audit", RefClock: ref.name, RefCycle: ref.cycle, Clocks: e.ClockStates()}
			if opts.Monitor != nil {
				dump = opts.Monitor.BuildDump(dump.Reason, ref.name, ref.cycle, dump.Clocks)
			}
			dump.Violations = append(v, dump.Violations...)
			return &health.InvariantError{RefCycle: ref.cycle, Dump: dump}
		}
		if opts.Deadline > 0 {
			if elapsed := time.Since(start); elapsed > opts.Deadline {
				var dump *health.Dump
				if opts.Monitor != nil {
					dump = opts.Monitor.BuildDump("deadline", ref.name, ref.cycle, e.ClockStates())
				}
				return &health.DeadlineError{
					RefCycle: ref.cycle, Deadline: opts.Deadline, Elapsed: elapsed, Dump: dump,
				}
			}
		}
		if !watch {
			continue
		}
		opts.Monitor.Observe(ref.cycle)
		if opts.Monitor.Advanced() {
			lastProgress = ref.cycle
			continue
		}
		if ref.cycle-lastProgress >= opts.StallWindow && opts.Monitor.AnyBusy() {
			dump := opts.Monitor.BuildDump("deadlock", ref.name, ref.cycle, e.ClockStates())
			return &health.DeadlockError{
				RefCycle: ref.cycle, Window: ref.cycle - lastProgress, Dump: dump,
			}
		}
	}
	return nil
}

// Package sim provides the deterministic cycle-level simulation engine used
// by every other component of dcl1sim: multi-rate clock domains with exact
// (drift-free) tick scheduling, bounded FIFO queues with backpressure, fixed
// delay pipes, and a small deterministic RNG.
//
// The engine is deterministic by construction rather than by serialization:
// cross-component communication goes through two-phase Ports (staged pushes
// become visible only at the owning clock's edge barrier), so the order
// components tick within an edge cannot influence results. Serial execution
// is the shards=1 degenerate case of the same code path; SetShards(n) spreads
// each edge's ticks across a fixed worker pool with a stable component→shard
// assignment and produces bit-identical results at any shard count (see
// DESIGN.md §11). Experiment-level parallelism (independent runs) composes
// with this via the sweep workers.
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

// wakeHorizon bounds finite wake cycles: anything at or beyond it is treated
// as WakeNever, which keeps the cycle→picosecond conversion in the bulk
// fast-forward free of int64 overflow.
const wakeHorizon Cycle = 1 << 42

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

	// Locality groups, parallel to comps/ports (-1 = ungrouped), and the
	// cached shard partition built from them (see placement.go). lastTicked
	// is the previous edge's productive tick count, the predictor the
	// dispatch-threshold uses to keep light edges serial; -1 until known.
	groups     []int
	portGroups []int
	plan       *shardPlan
	lastTicked int

	// curEx is the engine's executor while this clock's barrier tasks run,
	// so RunSharded can borrow the idle pool; nil outside barriers.
	curEx *executor

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
	walk    edgeWalk  // of a serial edge
	stats   WalkStats // Clock and Components are filled in by Engine.WalkStats
	// idle records that the most recent edge ticked no component and nothing
	// has been woken since, with idleUntil the earliest armed timer then
	// (WakeNever if none). Any productive tick on any clock invalidates all
	// idle flags.
	idle      bool
	idleUntil Cycle

	// Two-phase edge barrier. ports are the attached Ports whose producers
	// tick on this clock: their staged pushes commit at the end of every
	// processed edge. While lists is set (serial engine) the barrier visits
	// only dirty, the ports pushed to or popped from since their last commit;
	// otherwise every header is scanned. barriers run after the port commits,
	// serially and in registration order (e.g. deferred replication-tracker
	// updates).
	ports    []*portHeader
	dirty    []*portHeader
	lists    bool
	barriers []func()
}

// sleeperState is what an edge reads and writes about one Sleeper.
type sleeperState struct {
	s Sleeper

	// filed is the wake cycle the component's current sleep is on file under
	// (its timer, unless past the horizon); woken once something has woken it
	// since, so that its next edge ticks it without asking; 0 once it has
	// ticked. idleFrom is the first cycle SkipIdle has not yet covered, -1 =
	// none owed.
	filed    Cycle
	idleFrom Cycle
}

// woken is sleeperState.filed for a component woken since it was last considered.
const woken Cycle = -1

// shardWorkMin is the minimum productive ticks *per shard* (predicted from
// the previous eval edge) below which an edge is not worth dispatching: a
// near-idle edge on a big clock is a snapshot refresh plus a handful of
// ticks, and a serial pass beats waking n-1 workers for it.
const shardWorkMin = 4

// Name returns the clock's name.
func (c *Clock) Name() string { return c.name }

// FreqMHz returns the clock frequency in MHz.
func (c *Clock) FreqMHz() int64 { return c.mhz }

// Now returns the number of completed cycles of this clock.
func (c *Clock) Now() Cycle { return c.cycle }

// nextEdgePs returns the simulated time, in picoseconds, of this clock's next
// tick. Exact: edge k happens at floor(k * 1e6 / mhz) ps.
func (c *Clock) nextEdgePs() int64 { return c.cycle * 1_000_000 / c.mhz }

// Register adds a component to this clock domain with no locality group.
// Components tick in the order they were registered.
func (c *Clock) Register(t Ticker) { c.RegisterGrouped(t, -1) }

// RegisterGrouped adds a component to this clock domain under a locality
// group: components sharing a group (and the ports attached under it) are
// placed on the same shard, keeping tightly coupled producer/consumer pairs
// in one worker's cache. Group ids are arbitrary; a negative group means
// ungrouped (a singleton). Grouping never affects results — see placement.go.
func (c *Clock) RegisterGrouped(t Ticker, group int) {
	i := int32(len(c.comps))
	s, _ := t.(Sleeper)
	k, _ := t.(IdleSkipper)
	if s == nil {
		k = nil // never sleeps, so is never owed an idle cycle
	}
	c.comps = append(c.comps, t)
	c.sl = append(c.sl, sleeperState{s: s, idleFrom: -1})
	c.skip = append(c.skip, k)
	c.groups = append(c.groups, group)
	c.timers.add()
	if k != nil {
		c.skipIdx = append(c.skipIdx, i)
	}
	if int(i)>>6 == len(c.awake) {
		c.awake = append(c.awake, 0)
		c.bound = append(c.bound, 0)
	}
	c.wake(i)
	c.idle = false
	c.topologyChanged()
}

// topologyChanged drops what was derived from the set of components and
// attached ports: the shard plan, and the engine's wake-source binding.
func (c *Clock) topologyChanged() {
	c.plan = nil
	if c.eng != nil {
		c.eng.bound = false
	}
}

// Components returns how many components are registered on this clock.
func (c *Clock) Components() int { return len(c.comps) }

// OnBarrier registers f to run at the end of every edge this clock
// processes, after the clock's ports have committed. Barrier tasks run
// serially on the engine goroutine in registration order regardless of shard
// count — the hook for cross-component state that cannot be partitioned
// (e.g. the shared replication tracker applies its staged ops here).
func (c *Clock) OnBarrier(f func()) {
	c.barriers = append(c.barriers, f)
}

// commitSerial runs the clock's port barrier on the engine goroutine:
// publish staged pushes, refresh the producer-side occupancy snapshots, wake
// the consumers of what was published and the producers of what was freed.
// The barrier runs on every processed edge — even one where no component
// ticked — because a consumer on another clock may have drained a port since
// the last one and the freed space has to reach the producer on the same
// schedule regardless of fast path or shard count. A port nobody pushed to or
// popped from since its last commit has nothing to publish and a snapshot
// that is already right, so with lists on only the dirty ports are visited.
// On dispatched edges the shards commit their own ports inside the same
// dispatch instead (fused with the eval phase). Edges skipped wholesale by
// the quiescence fast-forward need no commit: nothing ticks anywhere during
// an all-idle stretch, so no port can change.
func (c *Clock) commitSerial() {
	ports := c.ports
	if c.lists {
		ports = c.dirty
		c.dirty = c.dirty[:0]
	}
	for _, h := range ports {
		h.listed = false
		if h.commit() && h.wclk != nil {
			h.wakeConsumer()
		}
		if h.relented() {
			h.wakeProducer()
		}
	}
}

// setLists switches the clock between committing by dirty list (serial
// engine) and by header scan (sharded). Turning lists on enrols every port
// once: a sharded run leaves no record of which ports were popped since
// their last barrier.
func (c *Clock) setLists(on bool) {
	c.lists = on
	c.dirty = c.dirty[:0]
	for _, h := range c.ports {
		h.listed = on
		if on {
			c.dirty = append(c.dirty, h)
		}
	}
}

// runBarriers runs the clock's barrier tasks, serially and in registration
// order, after the edge's port commits. ex (possibly nil) is the engine's
// executor, idle at this point, lent to barrier tasks through RunSharded.
func (c *Clock) runBarriers(ex *executor) {
	if len(c.barriers) == 0 {
		return
	}
	c.curEx = ex
	for _, f := range c.barriers {
		f()
	}
	c.curEx = nil
}

// RunSharded runs f(shard, shards) once per shard, in parallel when called
// from a barrier task while the engine runs sharded, serially as f(0, 1)
// otherwise. The shard invocations must touch disjoint state; aggregation
// across shards is the caller's (commutative) fold. This is the hook for
// parallel stats folding: the worker pool is idle during barrier tasks, so
// a fold borrows it for the duration of the call.
func (c *Clock) RunSharded(f func(shard, shards int)) {
	if ex := c.curEx; ex != nil {
		ex.fold(f)
		return
	}
	f(0, 1)
}

// tick advances the clock one edge and returns how many components actually
// ticked. With the fast path off every component ticks, exactly as the legacy
// engine did. With it on, the edge considers only the active set: components
// whose timer came due are put back first, each member is polled (a plain
// Ticker is not — it always ticks) and either ticks or goes to sleep. Port
// visibility makes the gate order-free: a push from another component this
// edge is staged, so it cannot wake a sleeper until the next edge whether the
// clock runs serially or sharded.
//
// A non-nil ex shards the whole edge — eval phase, phase barrier, port
// commits — in one dispatch across the worker pool; small clocks and edges
// predicted too light to amortize a dispatch stay serial, which cannot
// change results — only the partition of identical work.
func (c *Clock) tick(fast, strided bool, ex *executor) int {
	now := c.cycle
	// ex stays available to barrier tasks (RunSharded) even when the edge
	// itself runs serially; dispatchEx is what the edge uses.
	dispatchEx := ex
	if ex != nil && len(c.comps) < 2*ex.n {
		dispatchEx = nil
	}
	if dispatchEx != nil && fast && c.lastTicked >= 0 && c.lastTicked < dispatchEx.n*shardWorkMin {
		// The previous edge ticked so few components that a dispatch costs
		// more than it spreads; run this edge serially and let the tick
		// count re-arm dispatching when the clock heats back up.
		dispatchEx = nil
	}
	if fast {
		c.wakeDue(now)
	}
	var ticked int
	switch {
	case dispatchEx != nil:
		ticked = dispatchEx.tickEdge(c, c.planFor(dispatchEx.n, strided), now, fast)
	case fast:
		c.walk.set(c, nil, now)
		c.fileSleeps(c.walk.slept, now)
		ticked = c.walk.ticked
		c.stats.Polls += int64(c.walk.polled)
	default:
		for _, t := range c.comps {
			t.Tick(now)
		}
		ticked = len(c.comps)
	}
	c.stats.Edges++
	c.stats.Ticks += int64(ticked)
	c.cycle++
	// The idle verdict comes before the barrier: a wake the commits or a
	// barrier task raise clears it again (see Clock.wake).
	c.idle = fast && ticked == 0
	c.idleUntil = c.timers.min(c.cycle)
	c.lastTicked = ticked
	if dispatchEx == nil {
		c.commitSerial()
	} else {
		dispatchEx.wakeCommitted()
	}
	c.runBarriers(ex)
	if wakeAuditEveryEdge {
		c.eng.auditEdge()
	}
	return ticked
}

// Engine owns a set of clock domains and advances them in global time order.
// Ties between clocks due at the same picosecond are broken by clock creation
// order, which keeps runs deterministic.
type Engine struct {
	clocks []*Clock
	fast   bool
	shards int
	// strided forces the legacy i mod n shard placement instead of the
	// locality-group partition; a test oracle (placement cannot affect
	// results, so the two must produce bit-identical runs).
	strided bool
	ex      *executor
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
// CheckEvery slice can span millions of edges on a saturated run, so waiting
// for the slice boundary would make WithContext cancellation arbitrarily
// slow. Polling a few thousand edges apart keeps the overhead unmeasurable
// while bounding the response to well under a millisecond of work.
const ctxPollEdges = 4096

// NewEngine returns an empty engine with the quiescence fast path enabled
// and serial (single-shard) execution.
func NewEngine() *Engine { return &Engine{fast: true, shards: 1} }

// SetShards sets how many shards each clock edge's component ticks are
// spread across. n <= 1 selects serial execution. Results are bit-identical
// at every shard count: the two-phase port contract makes intra-edge tick
// order irrelevant, sharding only changes which goroutine does the work.
// Worker goroutines exist only while RunUntil is executing.
func (e *Engine) SetShards(n int) {
	if n < 1 {
		n = 1
	}
	if e.ex != nil && n != e.shards {
		e.stopExecutor()
	}
	if (n == 1) != (e.shards == 1) {
		for _, c := range e.clocks {
			c.setLists(n == 1)
		}
	}
	e.shards = n
}

// Shards returns the configured shard count.
func (e *Engine) Shards() int { return e.shards }

// SetStridedPlacement forces the legacy i mod n component→shard placement
// instead of the locality-group partition. Placement only chooses where a
// tick runs, never what it computes, so results are bit-identical either
// way; this exists so tests can prove exactly that.
func (e *Engine) SetStridedPlacement(on bool) { e.strided = on }

// StridedPlacement reports whether the legacy strided placement is forced.
func (e *Engine) StridedPlacement() bool { return e.strided }

// MaxClockComponents returns the component count of the most populated
// clock — the natural upper bound on useful shards ("auto" shard counts
// clamp to it).
func (e *Engine) MaxClockComponents() int {
	m := 0
	for _, c := range e.clocks {
		if len(c.comps) > m {
			m = len(c.comps)
		}
	}
	return m
}

// startExecutor spins up the worker pool if sharding is configured and none
// is running; stopExecutor tears it down. RunUntil manages the pair itself
// for a one-shot run, while RunUntilChecked pins one executor across all its
// watchdog slices so workers aren't respawned every CheckEvery cycles.
func (e *Engine) startExecutor() {
	if e.shards > 1 && e.ex == nil {
		e.ex = newExecutor(e.shards)
	}
}

func (e *Engine) stopExecutor() {
	if e.ex != nil {
		e.ex.stop()
		e.ex = nil
	}
}

// SetFastPath toggles the quiescence fast path: considering only awake
// components on each edge and bulk fast-forwarding when every component of
// every clock sleeps until a known wake cycle. Results are bit-identical
// either way (the legacy always-tick path exists for validation and
// benchmarking). Turning it off settles every idle debt and re-awakes every
// component, so full-tick edges start from exactly the state an always-tick
// engine would be in.
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
			c.idle = false
		}
	}
}

// FastPath reports whether the quiescence fast path is enabled.
func (e *Engine) FastPath() bool { return e.fast }

// NewClock creates and registers a clock domain with the given frequency in
// MHz. It panics if mhz is not positive: a zero-frequency clock can never
// tick and indicates a configuration bug.
func (e *Engine) NewClock(name string, mhz int64) *Clock {
	if mhz <= 0 {
		panic(fmt.Sprintf("sim: clock %q frequency must be positive, got %d", name, mhz))
	}
	c := &Clock{name: name, mhz: mhz, lastTicked: -1, eng: e, lists: e.shards == 1}
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
	if e.shards > 1 && e.ex == nil && ref.cycle < cycles {
		e.startExecutor()
		defer e.stopExecutor()
	}
	if !e.bound {
		e.bind()
	}
	e.advance(ref, cycles)
	e.Settle()
}

// advance is RunUntil's edge loop.
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
		if e.fast && e.allIdle() && e.fastForward(ref, cycles) {
			continue
		}
		next := e.clocks[0]
		nt := next.nextEdgePs()
		for _, c := range e.clocks[1:] {
			if t := c.nextEdgePs(); t < nt {
				next, nt = c, t
			}
		}
		if next.tick(e.fast, e.strided, e.ex) > 0 {
			// A productive tick may have pushed work into any component on
			// any clock: every cached idle verdict is stale.
			for _, c := range e.clocks {
				c.idle = false
			}
		}
	}
}

// allIdle reports whether every clock's most recent edge ticked no
// component. Between such edges no component ran, so no queue changed and the
// cached idleUntil wake cycles are still valid.
func (e *Engine) allIdle() bool {
	for _, c := range e.clocks {
		if !c.idle {
			return false
		}
	}
	return true
}

// fastForward bulk-skips every edge of every clock that lies strictly before
// S = min(earliest possible wake time, ref's final edge of this run), in
// picoseconds. Those edges form a prefix of the global (time, clock-order)
// edge sequence, so skipping them wholesale preserves the exact interleaving
// the legacy engine would have produced; edges at or after S — including any
// same-picosecond ties — are left to the normal loop. Returns false when no
// edge can be skipped.
func (e *Engine) fastForward(ref *Clock, cycles Cycle) bool {
	s := (cycles - 1) * 1_000_000 / ref.mhz
	for _, c := range e.clocks {
		if c.idleUntil < wakeHorizon {
			if t := c.idleUntil * 1_000_000 / c.mhz; t < s {
				s = t
			}
		}
	}
	advanced := false
	for _, c := range e.clocks {
		// Edges strictly before time s: edge k fires at floor(k*1e6/mhz), and
		// floor(k*1e6/mhz) < s  ⇔  k*1e6 < s*mhz, so the first kept edge is
		// ceil(s*mhz/1e6).
		newCycle := (s*c.mhz + 999_999) / 1_000_000
		if newCycle <= c.cycle {
			continue
		}
		// Only the cycle moves: the skipped idle cycles stay on each sleeper's
		// tab until it next ticks or the engine settles.
		c.cycle = newCycle
		advanced = true
	}
	return advanced
}

// NowPs returns the earliest pending edge time in picoseconds — the current
// simulated time frontier. Returns 0 on an empty engine.
func (e *Engine) NowPs() int64 {
	if len(e.clocks) == 0 {
		return 0
	}
	min := e.clocks[0].nextEdgePs()
	for _, c := range e.clocks[1:] {
		if t := c.nextEdgePs(); t < min {
			min = t
		}
	}
	return min
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
	// CheckEvery is the probe sampling period in reference cycles.
	// 0 selects StallWindow/8 (at least 1).
	CheckEvery Cycle
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
	if o.CheckEvery <= 0 {
		o.CheckEvery = o.StallWindow / 8
		if o.CheckEvery < 1 {
			o.CheckEvery = 1
		}
	}
	return o
}

// clockStates snapshots every clock domain for a diagnostic dump.
func (e *Engine) clockStates() []health.ClockState {
	out := make([]health.ClockState, 0, len(e.clocks))
	for _, c := range e.clocks {
		out = append(out, health.ClockState{Name: c.name, FreqMHz: c.mhz, Cycle: c.cycle})
	}
	return out
}

// RunUntilChecked is RunUntil under a progress watchdog: it advances the
// engine in CheckEvery-sized slices of the reference clock, sampling the
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
	// Pin one executor across all the watchdog slices: respawning the worker
	// pool every CheckEvery cycles costs goroutine churn for nothing. The
	// nested RunUntil calls see e.ex non-nil and leave ownership here.
	if e.shards > 1 && ref.cycle < cycles {
		e.startExecutor()
		defer e.stopExecutor()
	}
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
		target := ref.cycle + opts.CheckEvery
		if target > cycles {
			target = cycles
		}
		e.RunUntil(ref, target)
		// The engine's own books first: a component asleep with work to do
		// is the likeliest cause of whatever the probes would report next.
		if v := e.CheckInvariants(); len(v) > 0 {
			dump := &health.Dump{Reason: "wake-audit", RefClock: ref.name, RefCycle: ref.cycle, Clocks: e.clockStates()}
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
					dump = opts.Monitor.BuildDump("deadline", ref.name, ref.cycle, e.clockStates())
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
			dump := opts.Monitor.BuildDump("deadlock", ref.name, ref.cycle, e.clockStates())
			return &health.DeadlockError{
				RefCycle: ref.cycle, Window: ref.cycle - lastProgress, Dump: dump,
			}
		}
	}
	return nil
}

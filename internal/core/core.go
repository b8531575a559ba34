// Package core models a GPU compute unit (CU): a set of wavefronts issuing
// compute and memory instructions, a coalescer output (the workload layer
// already merges the 32 lanes of a wavefront instruction into line-granular
// transactions), a load/store queue, and scoreboard-style blocking on
// outstanding memory operations. The model captures what the paper's designs
// react to — memory intensity, latency tolerance via multithreading, and
// issue bandwidth — without executing a real ISA.
//
// A "lite core" (Section III) is the same component: in decoupled designs the
// core's memory queues connect to NoC#1 instead of a private L1 node.
package core

import (
	"fmt"

	"dcl1sim/internal/chaos"
	"dcl1sim/internal/mem"
	"dcl1sim/internal/sim"
	"dcl1sim/internal/stats"
)

// OpKind classifies one wavefront instruction.
type OpKind uint8

// Instruction kinds. OpEnd terminates a wavefront's program.
const (
	OpCompute OpKind = iota
	OpLoad
	OpStore
	OpNonL1
	OpAtomic
	OpEnd
)

// Op is one wavefront-wide instruction.
type Op struct {
	Kind OpKind
	// Lines holds the coalesced line-granular transactions of a memory op
	// (1 fully-coalesced .. 32 fully-divergent).
	Lines []uint64
	// Bytes is the number of bytes the wavefront needs from each line
	// (reply payload on NoC#1 under DC-L1 designs).
	Bytes int
	// Latency is the pipeline latency of a compute op before the wavefront
	// may issue again.
	Latency sim.Cycle
	// Blocking marks a memory op whose value is consumed immediately
	// (load-use): the wavefront stalls until all its outstanding
	// transactions complete.
	Blocking bool
}

// Program generates the instruction stream of one wavefront.
type Program interface {
	Next() Op
}

// Params configures a core.
type Params struct {
	ID int
	// Name names the core in its series, injector, audits and dump
	// ("core-<ID>" when empty).
	Name           string
	MaxOutstanding int // per-wavefront outstanding transactions
	LSQCap         int // coalesced transactions buffered before injection
	OutCap, InCap  int
	// Pool recycles Access values: the core allocates every transaction from
	// it and retires consumed replies back to it. Nil means plain allocation.
	Pool *mem.Pool
}

func (p Params) withDefaults() Params {
	if p.Name == "" {
		p.Name = fmt.Sprintf("core-%d", p.ID)
	}
	if p.MaxOutstanding <= 0 {
		p.MaxOutstanding = 8
	}
	if p.LSQCap <= 0 {
		p.LSQCap = 32
	}
	if p.OutCap <= 0 {
		p.OutCap = 8
	}
	if p.InCap <= 0 {
		p.InCap = 8
	}
	return p
}

// Stats aggregates core activity.
type Stats struct {
	Cycles        int64
	Issued        int64 // wavefront instructions issued
	ComputeIssued int64
	MemIssued     int64
	Transactions  int64 // coalesced memory transactions created
	StallNoReady  int64 // cycles with no issuable wavefront
	Throttled     int64 // awake cycles the power governor withheld issue
	// RTT is the full load round-trip latency distribution.
	RTT stats.Histogram
}

// IPC returns issued wavefront-instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Issued) / float64(s.Cycles)
}

// MeanRTT returns the average load round-trip time in core cycles.
func (s *Stats) MeanRTT() float64 { return s.RTT.Mean() }

type wave struct {
	id          int
	prog        Program
	readyAt     sim.Cycle
	outstanding int
	blocked     bool
	// fence marks a load-use block: the wavefront waits until every
	// outstanding transaction returns. Without fence, a wave blocked at
	// MaxOutstanding resumes as soon as it drops below the cap.
	fence bool
	done  bool

	// In-flight memory instruction being expanded into the LSQ: remaining
	// lines plus the op metadata. A wavefront with an active pending op
	// cannot issue its next instruction (its LSU slot is occupied).
	// pendNext indexes the next unexpanded line so pendLines keeps its
	// backing array across instructions (re-slicing from the front would
	// erode its capacity and force a reallocation per memory op).
	pendActive   bool
	pendLines    []uint64
	pendNext     int
	pendKind     mem.Kind
	pendBytes    int
	pendBlocking bool
}

// stalled reports whether a flag — as opposed to the clock (readyAt) — keeps
// the wavefront from issuing.
func (w *wave) stalled() bool {
	return w.done || w.blocked || w.pendActive
}

// Core is one compute unit.
type Core struct {
	P    Params
	Out  *sim.Port[*mem.Access] // memory requests toward the L1 / NoC#1
	In   *sim.Port[*mem.Access] // replies
	Stat Stats

	// Chaos, when set, injects issue-stage freezes. Drawn only while the
	// issue stage is awake (asleep cores draw nothing in either tick mode),
	// keeping the fault schedule fast-path-invariant; nil injects nothing.
	Chaos *chaos.Injector

	// waves holds the wavefronts by value: issue's round-robin walk reads
	// one contiguous array. AddWave may move it, so no *wave outlives a call.
	waves  []wave
	rr     int
	lsq    *sim.Queue[*mem.Access]
	nextID uint64

	// sleepUntil is a scheduling hint: no wavefront can become issuable
	// before this cycle unless an unblocking event (reply retirement, LSQ
	// drain) clears it. Avoids scanning all wavefronts on idle cycles.
	sleepUntil sim.Cycle
	// pendCount tracks wavefronts with an active pending memory op so the
	// expansion pass can skip the scan entirely when none exist. pendZero
	// counts those among them whose op has no lines at all: the only pending
	// ops that complete without LSQ space, so expansion may stop at a full
	// LSQ only while it is zero.
	pendCount int
	pendZero  int

	// Derived scheduling sets, updated where a wavefront flag changes and
	// never recomputed by a scan (CheckInvariants audits both against the
	// flags): pending = {w : w.pendActive}, walked by expandPending;
	// issuable = {w : !w.stalled()}, walked by issue.
	pending  waveSet
	issuable waveSet

	// throttle is the power governor's duty-cycle gate: level L withholds
	// issue on L of every 8 cycles (retire, expansion, and LSQ drain still
	// run, so outstanding work lands normally). Changed only from clock
	// barriers, read only by issue.
	throttle int
}

// New builds a core with no wavefronts; add them with AddWave.
func New(p Params) *Core {
	p = p.withDefaults()
	return &Core{
		P:   p,
		Out: sim.NewPort[*mem.Access](p.OutCap),
		In:  sim.NewPort[*mem.Access](p.InCap),
		lsq: sim.NewQueue[*mem.Access](p.LSQCap),
	}
}

// AddWave attaches a wavefront executing prog.
func (c *Core) AddWave(prog Program) {
	id := len(c.waves)
	c.waves = append(c.waves, wave{id: id, prog: prog})
	c.pending.grow(len(c.waves))
	c.issuable.grow(len(c.waves))
	c.issuable.set(id)
}

// markIssuable re-derives w's membership of the issuable set; called after
// every change to one of the flags stalled reads.
func (c *Core) markIssuable(w *wave) {
	if w.stalled() {
		c.issuable.clear(w.id)
	} else {
		c.issuable.set(w.id)
	}
}

// SetThrottle sets the governor duty-cycle level: 0 runs free, level L in
// [1, 7] withholds issue on L of every 8 cycles. Callers must only change it
// from clock-barrier tasks so every core observes the new level on the same
// edge in every execution mode.
func (c *Core) SetThrottle(level int) {
	if level < 0 {
		level = 0
	}
	if level > 7 {
		level = 7
	}
	c.throttle = level
}

// Waves returns the number of wavefronts.
func (c *Core) Waves() int { return len(c.waves) }

// Done reports whether every wavefront has finished its program.
func (c *Core) Done() bool { return c.Pending() == 0 }

// OutstandingTotal returns in-flight transactions across wavefronts (tests).
func (c *Core) OutstandingTotal() int {
	n := 0
	for i := range c.waves {
		n += c.waves[i].outstanding
	}
	return n
}

// Tick advances one core-clock cycle.
func (c *Core) Tick(now sim.Cycle) {
	c.Stat.Cycles++
	c.retire(now)
	c.expandPending(now)
	c.injectLSQ()
	c.issue(now)
}

// NextWorkCycle implements sim.Sleeper. The core has work whenever one of its
// stages can move something: a reply waits in In, a memory instruction can
// expand into the LSQ (expandPending's own stop rule: a full LSQ ends the pass
// unless a zero-line op is pending), the LSQ can inject into Out, or the issue
// stage is not asleep (sleepUntil tracks the earliest compute-latency
// wake-up; unblocking events reset it, and the external ones — reply arrivals
// — are visible here as a non-empty In). A core backed up behind a full Out —
// LSQ occupied, expansion stopped, issue asleep — has none of these: until
// sleepUntil, a reply or space in Out, Tick only advances Stat.Cycles and
// Stat.StallNoReady, which SkipIdle compensates.
func (c *Core) NextWorkCycle(now sim.Cycle) sim.Cycle {
	if !c.In.Empty() ||
		c.pendCount != 0 && (c.pendZero != 0 || !c.lsq.Full()) ||
		!c.lsq.Empty() && !c.Out.Full() {
		return now
	}
	if len(c.waves) == 0 {
		return sim.WakeNever
	}
	if c.sleepUntil <= now {
		return now
	}
	return c.sleepUntil
}

// WakeSources implements sim.WakeSourcer: asleep, the core's own state is
// frozen, so before sleepUntil only a reply committed into In or space freed
// in Out can give it work.
func (c *Core) WakeSources() []sim.PortRef {
	return []sim.PortRef{c.In.Ref(), c.Out.SpaceRef()}
}

// SkipIdle implements sim.IdleSkipper: n skipped idle ticks each count one
// cycle and (when the core has wavefronts to stall) one no-ready stall,
// exactly as the skipped Ticks would have.
func (c *Core) SkipIdle(now sim.Cycle, n sim.Cycle) {
	c.Stat.Cycles += n
	if len(c.waves) > 0 {
		c.Stat.StallNoReady += n
	}
}

// expandPending moves transactions of already-issued memory instructions
// into the LSQ as space allows, visiting pending wavefronts in id order. Once
// the LSQ is full no remaining op can push a line, and an op with lines left
// cannot complete, so the pass stops there — unless a zero-line op is pending,
// which completes without LSQ space wherever it sits in the order.
func (c *Core) expandPending(now sim.Cycle) {
	if c.pendCount == 0 {
		return
	}
	for i := c.pending.next(0); i >= 0; i = c.pending.next(i + 1) {
		if c.lsq.Full() && c.pendZero == 0 {
			return
		}
		w := &c.waves[i]
		for w.pendNext < len(w.pendLines) && !c.lsq.Full() {
			line := w.pendLines[w.pendNext]
			w.pendNext++
			a := c.P.Pool.GetAccess()
			a.ID = c.idNext()
			a.Kind = w.pendKind
			a.Line = line
			a.ReqBytes = int32(w.pendBytes)
			a.Core = int32(c.P.ID)
			a.Wave = int32(w.id)
			a.IssuedAt = now
			c.lsq.Push(a)
			w.outstanding++
			c.Stat.Transactions++
		}
		if w.pendNext >= len(w.pendLines) {
			w.pendActive = false
			c.pending.clear(w.id)
			c.pendCount--
			if len(w.pendLines) == 0 {
				c.pendZero--
			}
			switch {
			case w.pendBlocking && w.outstanding > 0:
				w.blocked = true
				w.fence = true
			case w.outstanding >= c.P.MaxOutstanding:
				w.blocked = true
			default:
				c.sleepUntil = 0
			}
			w.pendBlocking = false
			c.markIssuable(w)
		}
	}
}

// retire consumes replies, crediting the owning wavefront.
func (c *Core) retire(now sim.Cycle) {
	for {
		a, ok := c.In.Pop()
		if !ok {
			return
		}
		if a.Wave >= 0 && int(a.Wave) < len(c.waves) {
			w := &c.waves[a.Wave]
			if w.outstanding > 0 {
				w.outstanding--
			}
			if w.blocked {
				if w.fence {
					if w.outstanding == 0 {
						w.blocked = false
						w.fence = false
						c.markIssuable(w)
						c.sleepUntil = 0
					}
				} else if w.outstanding < c.P.MaxOutstanding {
					w.blocked = false
					c.markIssuable(w)
					c.sleepUntil = 0
				}
			}
		}
		if a.Kind == mem.Load {
			c.Stat.RTT.Add(now - a.IssuedAt)
		}
		// The reply is fully consumed: this is the Access's retirement point.
		c.P.Pool.PutAccess(a)
	}
}

// injectLSQ moves at most one buffered transaction into Out per cycle.
func (c *Core) injectLSQ() {
	a, ok := c.lsq.Peek()
	if !ok || c.Out.Full() {
		return
	}
	c.lsq.Pop()
	c.Out.Push(a)
}

// issue issues the next op of at most one ready wavefront, round-robin from
// the rotating start. The order is walked over the issuable set, so
// wavefronts stalled on a flag cost nothing.
func (c *Core) issue(now sim.Cycle) {
	if len(c.waves) == 0 {
		return
	}
	if now < c.sleepUntil {
		c.Stat.StallNoReady++
		return
	}
	if c.Chaos.IssueStalled(now) {
		c.Stat.StallNoReady++
		return
	}
	// Power-governor duty cycle: level L gates L of every 8 issue slots,
	// keyed off the absolute cycle so the pattern is identical in every tick
	// mode. Placed after the chaos draw so arming a cap never perturbs the
	// fault schedule. Asleep cores never reach this point in either tick
	// mode (the sleep check above returns first), so fast-path skips and
	// legacy ticks count Throttled identically.
	if c.throttle > 0 && int(now&7) < c.throttle {
		c.Stat.Throttled++
		return
	}
	issued := false
	for i := c.issuable.next(c.rr); i >= 0 && !issued; i = c.issuable.next(i + 1) {
		issued = c.issueWave(&c.waves[i], now)
	}
	for i := c.issuable.next(0); i >= 0 && i < c.rr && !issued; i = c.issuable.next(i + 1) {
		issued = c.issueWave(&c.waves[i], now)
	}
	c.rr = (c.rr + 1) % len(c.waves)
	if !issued {
		c.Stat.StallNoReady++
		// Nothing issuable now: sleep until the earliest compute-latency
		// wake-up; unblocking events reset the hint.
		next := sim.Cycle(1) << 60
		for i := c.issuable.next(0); i >= 0; i = c.issuable.next(i + 1) {
			if r := c.waves[i].readyAt; r < next {
				next = r
			}
		}
		c.sleepUntil = next
	}
}

// issueWave issues the next op of an issuable wavefront if its pipeline
// latency has elapsed, reporting whether that used the issue slot (a finished
// program uses none).
func (c *Core) issueWave(w *wave, now sim.Cycle) bool {
	if w.readyAt > now {
		return false
	}
	op := w.prog.Next()
	switch op.Kind {
	case OpEnd:
		w.done = true
		c.issuable.clear(w.id)
	case OpCompute:
		lat := op.Latency
		if lat < 1 {
			lat = 1
		}
		w.readyAt = now + lat
		c.Stat.Issued++
		c.Stat.ComputeIssued++
		return true
	case OpLoad, OpStore, OpNonL1, OpAtomic:
		// Hand the coalesced transactions to the LSU; they drain into
		// the LSQ over the following cycles (expandPending).
		w.pendActive = true
		c.issuable.clear(w.id)
		c.pending.set(w.id)
		c.pendCount++
		if len(op.Lines) == 0 {
			c.pendZero++
		}
		w.pendLines = append(w.pendLines[:0], op.Lines...)
		w.pendNext = 0
		w.pendKind = kindOf(op.Kind)
		w.pendBytes = op.Bytes
		w.pendBlocking = op.Blocking
		w.readyAt = now + 1
		c.Stat.Issued++
		c.Stat.MemIssued++
		return true
	}
	return false
}

func (c *Core) idNext() uint64 {
	c.nextID++
	return uint64(c.P.ID)<<40 | c.nextID
}

func kindOf(k OpKind) mem.Kind {
	switch k {
	case OpLoad:
		return mem.Load
	case OpStore:
		return mem.Store
	case OpNonL1:
		return mem.NonL1
	case OpAtomic:
		return mem.Atomic
	default:
		panic("core: not a memory op")
	}
}

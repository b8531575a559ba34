package sim

import (
	"fmt"
	"math/bits"

	"dcl1sim/internal/health"
)

// The active set. A clock edge costs what is awake on it, not what is
// registered: each clock keeps a bitset of the components it will consider on
// its next edge, walked in registration order. A Sleeper that reports a
// future wake leaves the set and comes back one of three ways — its timer (one
// entry per component, keyed by the cycle it reported), the barrier commit
// that publishes values into a port it consumes (data), or the barrier commit
// after which a port it produces into accepts again (space). All three are
// exact for a component whose NextWorkCycle has the shape "an input port holds
// something I can move → now; otherwise my own earliest timer, or never":
// asleep, its state is frozen, so the answer can only change when a commit
// fills one of its inputs or frees one of its outputs, and the commit is
// where the wake is raised. See DESIGN.md §9 and §20.

// WakeSourcer is the optional Sleeper extension that lets a component leave
// the active set: WakeSources names every port end that can turn the
// component's NextWorkCycle from a future cycle into "now" — Ref for a port
// it consumes (a publish into it is work), SpaceRef for a port it produces into
// and whose fullness it sleeps on (Full turning false is work). The engine
// binds them when a run starts; the barrier commit that changes either
// re-awakes the component for its next edge. A Sleeper without it (or with a
// source that is not attached to a clock) is polled on every edge, and a plain
// Ticker is simply always awake.
type WakeSourcer interface {
	WakeSources() []PortRef
}

// wheelSlots is the span of the timer wheel in cycles: nearly every finite
// sleep in this tree is a pipeline latency of a few to a few dozen cycles.
const wheelSlots = 64

// wakeTimers holds, for each component, at most one armed wake cycle: at[i].
// A cycle fewer than wheelSlots edges ahead is a bit in the wheel slot of
// that cycle (slot w&63 is a bitset over components — words words of slots —
// so arming, re-keying and disarming are a word operation each, and firing a
// slot is an OR into the active set); a farther one — the next metrics sample, say —
// waits in the far set and is pulled into the wheel when it comes within
// reach. Re-arming moves the component's one bit, so a sleeping component's
// timer is always the wake it last reported. The one timer that can outlive
// its purpose belongs to a component a port commit woke before its filed
// cycle: rouse leaves it armed (the walk only reads the timers — disarming
// would be a wheel write per such wake for a bit the component's next sleep
// moves anyway), and it is tolerated — if the component is still awake when
// it fires it ticks that one edge without being asked, which the Sleeper
// contract makes equal to the skipped cycle it stands for. The component's
// next sleep re-keys it.
type wakeTimers struct {
	at     []Cycle  // per component: the cycle it is armed for, -1 = unarmed
	words  int      // bitset words per slot, len(far)
	slots  []uint64 // slot w&63, at [s*words, (s+1)*words): components armed for cycle w
	occ    uint64   // bit s set: slot s is non-empty
	far    []uint64 // components armed wheelSlots or more cycles ahead
	farMin Cycle    // no far component is armed before this cycle
}

// slot returns slot s's bitset.
func (t *wakeTimers) slot(s Cycle) []uint64 {
	return t.slots[int(s)*t.words : (int(s)+1)*t.words]
}

// add makes room for one more component, unarmed.
func (t *wakeTimers) add() {
	if len(t.at) == 0 {
		t.farMin = WakeNever
	}
	if len(t.at)>>6 == t.words {
		// One more word per slot: re-lay the wheel out.
		old, ow := t.slots, t.words
		t.words++
		t.far = append(t.far, 0)
		t.slots = make([]uint64, wheelSlots*t.words)
		for s := 0; s < wheelSlots; s++ {
			copy(t.slot(Cycle(s)), old[s*ow:(s+1)*ow])
		}
	}
	t.at = append(t.at, -1)
}

// armedAt returns component i's armed cycle.
func (t *wakeTimers) armedAt(i int32) (Cycle, bool) { return t.at[i], t.at[i] >= 0 }

// arm sets component i's one timer to cycle w > now.
func (t *wakeTimers) arm(i int32, w, now Cycle) {
	if t.at[i] == w {
		return
	}
	t.disarm(i)
	t.at[i] = w
	wi, bit := i>>6, uint64(1)<<uint(i&63)
	if w-now >= wheelSlots {
		t.far[wi] |= bit
		t.farMin = min(t.farMin, w)
		return
	}
	s := w & (wheelSlots - 1)
	t.slots[int(s)*t.words+int(wi)] |= bit
	t.occ |= 1 << uint(s)
}

// disarm drops component i's timer, if it has one.
func (t *wakeTimers) disarm(i int32) {
	w := t.at[i]
	if w < 0 {
		return
	}
	t.at[i] = -1
	wi, bit := i>>6, uint64(1)<<uint(i&63)
	if t.far[wi]&bit != 0 {
		t.far[wi] &^= bit // farMin stays a lower bound
		return
	}
	s := w & (wheelSlots - 1)
	t.slots[int(s)*t.words+int(wi)] &^= bit
	for _, word := range t.slot(s) {
		if word != 0 {
			return
		}
	}
	t.occ &^= 1 << uint(s)
}

// pull moves the far timers that have come within the wheel's reach of edge
// now into their slots, and re-derives farMin from the rest.
func (t *wakeTimers) pull(now Cycle) {
	t.farMin = WakeNever
	for wi, word := range t.far {
		for b := word; b != 0; b &= b - 1 {
			i := int32(wi<<6 + bits.TrailingZeros64(b))
			w := t.at[i]
			if w-now >= wheelSlots {
				t.farMin = min(t.farMin, w)
				continue
			}
			t.far[wi] &^= 1 << uint(i&63)
			s := w & (wheelSlots - 1)
			t.slots[int(s)*t.words+wi] |= 1 << uint(i&63)
			t.occ |= 1 << uint(s)
		}
	}
}

// reset disarms every component.
func (t *wakeTimers) reset() {
	for i := range t.at {
		t.at[i] = -1
	}
	clear(t.slots)
	clear(t.far)
	t.occ, t.farMin = 0, WakeNever
}

// wake puts component i into the active set for the clock's next edge and
// marks it fresh: whatever woke it — its own timer coming due, a value
// published into a port it reads — is work by the component's own account,
// so that edge ticks it without asking first. (Were the wake spurious, the
// Tick is the no-op-but-for-counters the Sleeper contract already allows in
// place of any skipped cycle.)
func (c *Clock) wake(i int32) {
	c.awake[i>>6] |= 1 << uint(i&63)
	c.sl[i].filed = woken
}

// isAwake reports whether component i is in the active set.
func (c *Clock) isAwake(i int32) bool { return c.awake[i>>6]&(1<<uint(i&63)) != 0 }

// isBound reports whether a port commit can wake component i.
func (c *Clock) isBound(i int32) bool { return c.bound[i>>6]&(1<<uint(i&63)) != 0 }

// wakeAll puts every component into the active set.
func (c *Clock) wakeAll() {
	for i := range c.comps {
		c.wake(int32(i))
	}
}

// wakeDue re-awakes every component whose timer is armed for edge now. Every
// edge runs it, so slot now&63 holds exactly the timers for now.
func (c *Clock) wakeDue(now Cycle) {
	t := &c.timers
	if now+wheelSlots > t.farMin {
		t.pull(now)
	}
	s := now & (wheelSlots - 1)
	if t.occ&(1<<uint(s)) == 0 {
		return
	}
	t.occ &^= 1 << uint(s)
	slot := t.slot(s)
	for wi, word := range slot {
		slot[wi] = 0
		for b := word; b != 0; b &= b - 1 {
			i := int32(wi<<6 + bits.TrailingZeros64(b))
			t.at[i] = -1
			c.stats.TimerWakes++
			c.wake(i)
		}
	}
}

// sleepRec is a component that reported a future wake on this edge, with the
// cycle to arm its timer for (-1 = none: only a port can wake it).
type sleepRec struct {
	idx int32
	at  Cycle
}

// edgeWalk is one walk over a clock's active set on one edge, and what it
// hands back: how many components ticked, how many were polled, and those
// whose sleep fileSleeps still has to file. The loop below keeps its state
// here, behind one pointer, so that the commonest visit — a poll that finds
// its component still asleep — holds almost nothing live across the call.
// The walk writes only the state of the components it visits; the active set
// and the timers, which it only reads, change in fileSleeps once it is over.
type edgeWalk struct {
	c      *Clock
	now    Cycle
	ticked int
	polled int
	slept  []sleepRec
}

// set considers, in registration order, the awake components of c on edge
// now. Only a component that was awake already is polled; a freshly woken one
// ticks. A component about to tick first receives, in one SkipIdle call, every
// cycle it slept through; one that sleeps records the first cycle it is owed,
// and the mark survives a poll that finds it still asleep, so the debt is
// never forgotten or paid twice (see noteSleep, rouse).
func (w *edgeWalk) set(c *Clock, now Cycle) {
	w.c, w.now, w.ticked, w.polled, w.slept = c, now, 0, 0, w.slept[:0]
	for wi, word := range c.awake {
		if word != 0 {
			w.word(wi<<6, word)
		}
	}
}

// word visits the components base+b for each set bit b of one word of the
// active set.
func (w *edgeWalk) word(base int, word uint64) {
	for ; word != 0; word &= word - 1 {
		i := base + bits.TrailingZeros64(word)
		if m := &w.c.sl[i]; m.s != nil { // a plain Ticker just ticks
			// Nothing of m is used after the calls below but this copy.
			filed := m.filed
			if filed != woken {
				w.polled++
				if wake := m.s.NextWorkCycle(w.now); wake > w.now {
					if wake != filed { // else an unbound sleeper, polled again: nothing new
						w.noteSleep(i, wake)
					}
					continue
				}
			}
			if filed != 0 {
				w.c.rouse(i, w.now)
			}
		}
		w.ticked++
		w.c.comps[i].Tick(w.now)
	}
}

// noteSleep records that component i, polled on this edge, reported the
// future wake cycle wake: the first idle cycle it is owed is marked, unless an
// earlier poll of the same sleep already did, and the sleep is handed to
// fileSleeps.
//
//go:noinline
func (w *edgeWalk) noteSleep(i int, wake Cycle) {
	m := &w.c.sl[i]
	if m.idleFrom < 0 {
		m.idleFrom = w.now
	}
	m.filed = wake
	if wake == WakeNever {
		wake = -1
	}
	w.slept = append(w.slept, sleepRec{int32(i), wake})
}

// rouse readies component i, which has slept or been woken since it last
// ticked, to tick on edge now: it receives every idle cycle it is owed in one
// SkipIdle call.
//
//go:noinline
func (c *Clock) rouse(i int, now Cycle) {
	m := &c.sl[i]
	m.filed = 0
	if m.idleFrom >= 0 {
		c.payIdle(m, i, now-1)
		m.idleFrom = -1
	}
}

// payIdle compensates m, component i, for the idle cycles it is owed through
// cycle last.
func (c *Clock) payIdle(m *sleeperState, i int, last Cycle) {
	if k := c.skip[i]; k != nil && last >= m.idleFrom {
		k.SkipIdle(last, last+1-m.idleFrom)
	}
}

// fileSleeps takes the components that went to sleep on edge now out of the
// active set — the bound ones; an unbound sleeper keeps its place and is
// polled again on every edge — and sets each one's timer to the cycle it
// reported.
func (c *Clock) fileSleeps(slept []sleepRec, now Cycle) {
	c.stats.Sleeps += int64(len(slept))
	for _, r := range slept {
		wi, bit := r.idx>>6, uint64(1)<<uint(r.idx&63)
		c.awake[wi] &^= c.bound[wi] & bit
		if r.at < 0 {
			c.timers.disarm(r.idx)
		} else {
			c.timers.arm(r.idx, r.at, now)
		}
	}
}

// settle pays every component the idle cycles it is owed through the clock's
// last processed edge, leaving the counters exactly where an engine calling
// SkipIdle for every skipped tick would have them. Sleepers stay asleep.
func (c *Clock) settle() {
	for _, i := range c.skipIdx {
		if m := &c.sl[i]; m.idleFrom >= 0 {
			c.payIdle(m, int(i), c.cycle-1)
			m.idleFrom = c.cycle
		}
	}
}

// Settle brings every component's idle-compensated counters up to date on
// every clock. The engine settles by itself when RunUntil returns; anything
// that reads component counters while a run is in flight — a metrics sample
// taken from a barrier task — calls it first.
func (e *Engine) Settle() {
	for _, c := range e.clocks {
		c.settle()
	}
}

// bind resolves every component's WakeSources against the ports as they are
// now attached, and re-awakes everyone (a newly bound port may already hold
// values). Runs when a run starts after any Register or Attach.
func (e *Engine) bind() {
	for _, c := range e.clocks {
		for _, h := range c.ports {
			h.wclk, h.pidx = nil, -1
		}
	}
	for _, c := range e.clocks {
		for i, t := range c.comps {
			bit := uint64(1) << uint(i&63)
			c.bound[i>>6] &^= bit
			ws, ok := t.(WakeSourcer)
			if !ok || c.sl[i].s == nil {
				continue
			}
			refs := ws.WakeSources()
			attached := true
			for _, r := range refs {
				attached = attached && r.h.clk != nil
			}
			if !attached {
				continue
			}
			for _, r := range refs {
				h := r.h
				switch {
				case !r.space:
					if h.wclk != nil && (h.wclk != c || h.widx != int32(i)) {
						panic(fmt.Sprintf("sim: port is a wake source of two components (%s[%d] and %s[%d])",
							h.wclk.name, h.widx, c.name, i))
					}
					h.wclk, h.widx = c, int32(i)
				case h.clk != c:
					panic(fmt.Sprintf("sim: %s[%d] sleeps on the space of a port that commits on %s",
						c.name, i, h.clk.name))
				case h.pidx >= 0 && h.pidx != int32(i):
					panic(fmt.Sprintf("sim: port is a space source of two components (%s[%d] and [%d])",
						c.name, h.pidx, i))
				default:
					h.pidx = int32(i)
				}
			}
			c.bound[i>>6] |= bit
		}
		c.wakeAll()
	}
	e.bound = true
}

// CheckInvariants audits the active set and the dirty-port lists between
// edges (health.Checker): a component outside the set must still report a
// future wake when polled — which, the blocked predicates being explicit over
// Full, covers a producer asleep on a port that accepts again — its timer must
// be armed for exactly that cycle, and a port off its clock's dirty list must
// be clean. RunUntilChecked runs it at every watchdog sample; under the
// wakeaudit build tag it runs after every edge.
func (e *Engine) CheckInvariants() []health.Violation {
	var out []health.Violation
	for _, c := range e.clocks {
		out = c.auditWakes(out)
		out = c.auditPorts(out)
	}
	return out
}

func (c *Clock) auditWakes(out []health.Violation) []health.Violation {
	last := c.cycle - 1
	if last < 0 {
		return out
	}
	bad := func(i int32, rule, format string, args ...any) {
		out = append(out, health.Violation{
			Component: fmt.Sprintf("%s[%d] %T", c.name, i, c.comps[i]), Rule: rule,
			Detail: fmt.Sprintf(format, args...),
		})
	}
	for idx := range c.comps {
		i := int32(idx)
		if c.isAwake(i) {
			continue
		}
		if !c.isBound(i) {
			bad(i, "wake-missed", "outside the active set, but no port commit can wake it")
			continue
		}
		w := c.sl[i].s.NextWorkCycle(last)
		if w <= last {
			bad(i, "wake-missed", "asleep at cycle %d with work to do%s", last, c.freedPorts(i))
			continue
		}
		at, armed := c.timers.armedAt(i)
		if want := w != WakeNever; armed != want || (armed && at != w) {
			bad(i, "wake-timer", "reports wake cycle %d, timer armed=%v at %d", w, armed, at)
		}
	}
	return out
}

// freedPorts names, for a wake-missed report, the ports component i sleeps on
// the space of that accept a push: the wakes the barrier should have raised.
func (c *Clock) freedPorts(i int32) (s string) {
	for k, h := range c.ports {
		if h.pidx == i && h.snap < h.cap {
			s += fmt.Sprintf("; port %d it produces into accepts (%d/%d)", k, h.snap, h.cap)
		}
	}
	return s
}

func (c *Clock) auditPorts(out []health.Violation) []health.Violation {
	bad := func(rule, format string, args ...any) {
		out = append(out, health.Violation{
			Component: c.name, Rule: rule, Detail: fmt.Sprintf(format, args...),
		})
	}
	// Every list entry carries the flag exactly once: clearing as we go turns
	// a duplicate into an unflagged entry, and leaves a flagged port that is
	// missing from the list standing out afterwards.
	for _, h := range c.dirty {
		if !h.listed {
			bad("port-dirty-list", "dirty list holds an unflagged (or repeated) port")
		}
		h.listed = false
	}
	for i, h := range c.ports {
		if h.listed {
			bad("port-dirty-list", "port %d is flagged dirty but not on the list", i)
		}
	}
	for _, h := range c.dirty {
		h.listed = true
	}
	for i, h := range c.ports {
		if !h.listed && (h.nStaged != 0 || h.snap != *h.size) {
			bad("port-unlisted", "port %d is off the dirty list with %d staged, snapshot %d, occupancy %d",
				i, h.nStaged, h.snap, *h.size)
		}
	}
	return out
}

// WalkStats is what one clock's edges have cost since the engine was built:
// the counters the walk keeps anyway, always on. A component that ticks or is
// polled without moving anything shows up here as Ticks and Polls that do not
// fall when it stalls (DESIGN.md §20).
type WalkStats struct {
	Clock      string
	Components int
	Edges      int64 // edges processed: every edge, so Edges == Clock.Now()
	Ticks      int64 // component Ticks
	Polls      int64 // NextWorkCycle calls
	Sleeps     int64 // sleeps filed: a component left the set or re-keyed its timer
	// Wakes by cause: a timer coming due, a commit publishing into a consumed
	// port, a commit or credit return freeing a produced one.
	TimerWakes, DataWakes, SpaceWakes int64
}

// WalkStats returns every clock's counters, in clock creation order.
func (e *Engine) WalkStats() []WalkStats {
	out := make([]WalkStats, len(e.clocks))
	for i, c := range e.clocks {
		out[i] = c.stats
		out[i].Clock, out[i].Components = c.name, len(c.comps)
	}
	return out
}

// auditEdge is the every-edge form of the audit (wakeaudit builds).
func (e *Engine) auditEdge() {
	if v := e.CheckInvariants(); len(v) > 0 {
		panic(fmt.Sprintf("sim: wake audit failed after an edge: %v", v))
	}
}

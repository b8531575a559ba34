package sim

// Port is the communication endpoint between components: a bounded FIFO with
// the same API as Queue plus an optional two-phase ("staged commit") mode,
// which is what makes a run independent of the order components tick in.
//
// An unattached Port behaves exactly like the Queue it embeds — pushes are
// immediately visible — which keeps standalone component unit tests simple.
// Attach(clock) switches the port to two-phase mode: Push writes the value
// into the queue's ring behind the committed values, where the consumer
// cannot see it, and the producer clock's edge barrier commits the staged
// values by counting them into the queue's occupancy. Within
// an edge, capacity checks (Full/Space) run against a snapshot of the
// committed occupancy taken at the previous barrier, so neither the values a
// producer can push nor the values a consumer can pop depend on the order
// components tick within the edge. That order-independence is what lets the
// active set tick a subset of an edge's components, and a rewiring change
// their registration order, without changing a result (see DESIGN.md §11).
//
// Ownership contract (audited in internal/gpu wiring):
//
//   - exactly one component is the producer: it alone calls Push/Full/Space;
//   - exactly one component is the consumer: it alone calls
//     Pop/Peek/At/RemoveAt and reads Len/Empty during ticks;
//   - the port is attached to the producer's clock, so staged pushes commit
//     when that clock's edge ends;
//   - everyone else (health probes, stats collection) reads only between
//     engine runs or at watchdog sampling points.
type Port[T any] struct {
	Queue[T]

	hdr      portHeader
	twoPhase bool
}

// portHeader is the part of an attached Port its clock's edge barrier reads:
// plain integers and pointers, no element type. Nearly every port is clean at
// nearly every barrier, so the barrier commits by list: the first staged
// push or pop since the port's last barrier enrols it on the producer clock's
// dirty list (listed is the one flag that keeps it there once), and the
// barrier publishes, wakes and refreshes only the ports on that list (a pop
// frees space the producer must see at its next barrier, so the committed
// queue reports its removals through Queue.watch). A port that is not listed
// has nothing staged and a snapshot equal to its occupancy, which is all a
// commit would establish.
type portHeader struct {
	nStaged int    // values staged in the ring behind the committed ones
	snap    int    // committed occupancy snapshot from the last barrier
	size    *int   // the committed queue's occupancy (Queue.size)
	pushes  *int64 // the committed queue's Queue.PushCount
	cap     int    // the queue's capacity

	clk    *Clock // producer clock, whose barrier commits the port; nil = unattached
	listed bool   // on clk.dirty

	// The sleepers a commit must wake, bound from their WakeSources. A publish
	// wakes the consumer, component widx of wclk (nil: none sleeps on the
	// port's data); a commit after which the port accepts again wakes the
	// producer, component pidx of clk (-1: none sleeps on the port's space) —
	// if it has been refused since the port last accepted at a barrier, which
	// is what starved records: a producer that never met the port full is not
	// waiting for it.
	wclk    *Clock
	widx    int32
	pidx    int32
	starved bool
	// A port feeding, or fed by, a Feed tells the Feeds hosting it of either
	// end's change: a publish marks feed didx of dnote live, a relent feed sidx
	// of snote.
	dnote *feedSet
	didx  int32
	snote *feedSet
	sidx  int32
}

// touch enrols a port that is not yet listed on its clock's dirty list.
func (h *portHeader) touch() {
	h.listed = true
	h.clk.dirty = append(h.clk.dirty, h)
}

// commit publishes the staged values — already in the ring, right behind the
// committed ones — by counting them into the queue's occupancy, and refreshes
// the occupancy snapshot, reporting whether anything was published (the
// caller then wakes the consumer). Runs at the owning clock's edge barrier,
// after every component of the edge has ticked.
func (h *portHeader) commit() (published bool) {
	if h.nStaged != 0 {
		*h.size += h.nStaged
		*h.pushes += int64(h.nStaged)
		h.nStaged = 0
		published = true
	}
	h.snap = *h.size
	return published
}

// relented reports, right after commit, that the Full verdict the producer
// was refused by has turned to accepting — the one transition that can turn
// "my output is full" into work, whether it comes from pops on another clock's
// edges or from this edge's own — and whether a producer sleeps on it (the
// caller then wakes it). Once per refusal: the mark is cleared either way.
// Kept apart from commit so that both inline into the barrier's loop over
// ports.
func (h *portHeader) relented() bool {
	if !h.starved || h.snap >= h.cap {
		return false
	}
	h.starved = false
	if h.snote != nil {
		h.snote.mark(h.sidx)
	}
	return h.pidx >= 0
}

// wakeConsumer and wakeProducer re-awake the component bound to that end of
// the port, for its clock's next edge.
func (h *portHeader) wakeConsumer() {
	h.wclk.stats.DataWakes++
	h.wclk.wake(h.widx)
}

func (h *portHeader) wakeProducer() {
	h.clk.stats.SpaceWakes++
	h.clk.wake(h.pidx)
}

// NewPort returns a port holding at most capacity items, in immediate mode
// until Attach is called. A capacity below one is a wiring bug and panics.
func NewPort[T any](capacity int) *Port[T] {
	p := &Port[T]{}
	p.Queue = *NewQueue[T](capacity)
	p.hdr.pidx = -1
	return p
}

// Attach switches the port to two-phase mode and registers its commit at c's
// edge barrier. c must be the clock of the port's producer: staged values
// become visible to the consumer after the producer's edge completes.
// Attaching twice is a wiring bug.
func (p *Port[T]) Attach(c *Clock) {
	if p.twoPhase {
		panic("sim: Port attached twice")
	}
	p.twoPhase = true
	p.hdr.snap, p.hdr.size, p.hdr.pushes, p.hdr.cap, p.hdr.clk = p.size, &p.size, &p.PushCount, p.cap, c
	p.watch = &p.hdr
	c.ports = append(c.ports, &p.hdr)
	c.topologyChanged()
}

// PortRef names one end of a port without its element type, for WakeSources:
// the data a consumer sleeps on, or the space a producer does.
type PortRef struct {
	h     *portHeader
	space bool
}

// Ref names the port's contents: the source of a component that consumes the
// port and sleeps while it is empty.
func (p *Port[T]) Ref() PortRef { return PortRef{h: &p.hdr} }

// SpaceRef names the port's free space: the source of a component that
// produces into the port and sleeps while it is full. The component must tick
// on the clock the port is attached to.
func (p *Port[T]) SpaceRef() PortRef { return PortRef{h: &p.hdr, space: true} }

// Bound reports whether the engine has bound a sleeper to this end of the
// port, so that a commit will wake it. A component whose blocked verdict is a
// memo of its last attempt, not a predicate it re-evaluates, may trust the
// memo only while this holds: unbound, nothing would tell it to try again.
func (r PortRef) Bound() bool {
	if r.space {
		return r.h.pidx >= 0
	}
	return r.h.wclk != nil
}

// Push appends v and reports whether it was accepted. In immediate mode this
// is Queue.Push. In two-phase mode the value is admitted against the
// committed occupancy snapshot and written into the ring behind the committed
// values and the values staged before it: the consumer sees it only after the
// next barrier. The slot is free: the committed queue only drains between
// barriers, so it holds at most the snapshot, and admission keeps the
// snapshot plus the staged values within the capacity.
func (p *Port[T]) Push(v T) bool {
	if !p.twoPhase {
		return p.Queue.Push(v)
	}
	if p.Full() {
		return false
	}
	p.buf[(p.head+p.size+p.hdr.nStaged)&(len(p.buf)-1)] = v
	if p.hdr.nStaged == 0 && !p.hdr.listed {
		p.hdr.touch()
	}
	p.hdr.nStaged++
	return true
}

// Full reports whether a Push would be rejected (two-phase: against the
// snapshot plus already-staged values). A refusal is remembered until the
// barrier after which the port accepts again, which then wakes the producer
// if it sleeps on the port's space: only the producer may ask.
func (p *Port[T]) Full() bool {
	if !p.twoPhase {
		return p.Queue.Full()
	}
	if p.hdr.snap+p.hdr.nStaged >= p.cap {
		p.hdr.starved = true
		return true
	}
	return false
}

// Space returns how many more items the producer can push this edge.
func (p *Port[T]) Space() int {
	if !p.twoPhase {
		return p.Queue.Space()
	}
	s := p.cap - p.hdr.snap - p.hdr.nStaged
	if s < 0 {
		s = 0
	}
	return s
}

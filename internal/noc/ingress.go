package noc

import (
	"fmt"

	"dcl1sim/internal/health"
	"dcl1sim/internal/mem"
	"dcl1sim/internal/sim"
)

// ingress is a network's admission book, the one injection rule of every
// network: a credit per key — a crossbar's (in,out) pair, a mesh's source
// node — and one pending list that publication empties into the buffers.
//
// credit[k] is the projected occupancy of key k's buffer: its packets, plus
// the injections toward it not yet published (pending), plus the packets
// granted from it whose credit has not come back (granted). admit takes a
// credit only while credit < depth, so admission counts buffer occupancy as
// of the last barrier plus this edge's injections. Attached, the edge barrier
// publishes pending and returns granted's credits; in immediate mode the
// network's Tick does both, at its start and its end. Either way a feed sees
// a credit come back on the edge after the grant, never on the grant's own,
// and no injection of an edge is visible to arbitration before the next one.
// returned counts the credits returned so far.
type ingress struct {
	credit   []int32
	depth    int32
	pending  []*mem.Packet
	granted  []int32 // keys
	returned int64
	attached bool

	// enter moves one published packet into its key's buffer, which the
	// credit rule guarantees has room.
	enter func(p *mem.Packet)

	// audit is checkCredits' per-key count, made by the first audit (most
	// runs audit once, at their end) and kept so later audits allocate
	// nothing.
	audit []int32
}

func newIngress(keys, depth int, enter func(p *mem.Packet)) ingress {
	return ingress{credit: make([]int32, keys), depth: int32(depth), enter: enter}
}

// admit takes a credit of key k for p and queues p for publication, or
// reports false when k's buffer is (projected) full.
func (g *ingress) admit(k int, p *mem.Packet) bool {
	c := &g.credit[k]
	if *c >= g.depth {
		return false
	}
	*c++
	g.pending = append(g.pending, p)
	return true
}

// grant records that a packet left key k's buffer; its credit returns at the
// next return.
func (g *ingress) grant(k int) { g.granted = append(g.granted, int32(k)) }

// CreditsReturned counts the injection credits returned so far: what a feed
// refused a credit waits to see move (sim.Feed.Credits).
func (g *ingress) CreditsReturned() int64 { return g.returned }

// Attach moves publication and credit return to clk's edge barrier. clk is
// the clock the network ticks on, and so are its producers — its feeds, run
// in its Tick — so no admission of this edge can depend on the barrier's
// work.
func (g *ingress) Attach(clk *sim.Clock) {
	g.attached = true
	clk.OnBarrier(g.barrier)
}

// barrier is the edge barrier: this edge's injections enter their buffers
// and this edge's grants return their credits.
func (g *ingress) barrier() {
	g.publish()
	g.returnCredits()
}

// tickStart and tickEnd are the immediate mode's barrier, split around the
// network's Tick.
func (g *ingress) tickStart() {
	if !g.attached {
		g.publish()
	}
}

func (g *ingress) tickEnd() {
	if !g.attached {
		g.returnCredits()
	}
}

// publish moves the pending injections into their buffers, in admission
// order.
func (g *ingress) publish() {
	for i, p := range g.pending {
		g.enter(p)
		g.pending[i] = nil
	}
	g.pending = g.pending[:0]
}

// returnCredits returns the credits of the grants since the last return.
func (g *ingress) returnCredits() {
	for _, k := range g.granted {
		g.credit[k]--
	}
	g.returned += int64(len(g.granted))
	g.granted = g.granted[:0]
}

// checkCredits audits the credit rule, fatal as ingress-credit: each key's
// credit equals the packets in its buffer (buffered) plus its unpublished
// injections plus its grants whose credit has not returned. key maps a
// pending packet to its key; name describes a key in a violation. After the
// first, a passing audit allocates nothing.
func (g *ingress) checkCredits(component string, key func(p *mem.Packet) int,
	buffered func(k int) int32, name func(k int) string) []health.Violation {
	if g.audit == nil {
		g.audit = make([]int32, len(g.credit))
	}
	held := g.audit
	clear(held)
	for _, p := range g.pending {
		held[key(p)]++
	}
	for _, k := range g.granted {
		held[k]++
	}
	var out []health.Violation
	for k, c := range g.credit {
		if b := buffered(k); c != b+held[k] {
			out = append(out, health.Violation{Component: component, Rule: "ingress-credit",
				Detail: fmt.Sprintf("%s: credit %d, buffered %d + held %d", name(k), c, b, held[k])})
		}
	}
	return out
}

// Package noc models the crossbar networks-on-chip connecting GPU cores,
// DC-L1 nodes, and L2 slices. A Crossbar is an input-VOQ (virtual output
// queue) switch with round-robin output arbitration — the behavioural
// equivalent of the paper's iSLIP-allocated crossbars with virtual channels.
// Packets are serialized onto 32 B links: a packet of F flits holds its input
// and output port for F cycles (virtual cut-through approximation).
//
// Real systems split the NoC into independent request and reply physical
// networks to avoid protocol deadlock (Section VII); the gpu package
// instantiates two Crossbars per logical NoC accordingly.
package noc

import (
	"fmt"
	"math/bits"

	"dcl1sim/internal/chaos"
	"dcl1sim/internal/mem"
	"dcl1sim/internal/sim"
)

// Endpoint receives packets emerging from a crossbar output port. Deliver
// returns false when the receiver has no room this cycle; the crossbar
// retries on subsequent cycles.
type Endpoint interface {
	Deliver(p *mem.Packet) bool
}

// EndpointFunc adapts a function to Endpoint.
type EndpointFunc func(p *mem.Packet) bool

// Deliver implements Endpoint.
func (f EndpointFunc) Deliver(p *mem.Packet) bool { return f(p) }

// Params configures a crossbar.
type Params struct {
	Name string
	// Net names the network the crossbar belongs to ("noc1", "noc2",
	// "link"): its series' domain and family prefix.
	Net string
	// Reply marks a reply-direction crossbar, which also reports the paper's
	// max output-link utilization.
	Reply     bool
	Ins, Outs int
	LinkBytes int       // flit width (32 B baseline, 64 B in the 2x-flit study)
	RouterLat sim.Cycle // pipeline latency added to every traversal
	VOQDepth  int       // per (input,output) queue depth
	OutDepth  int       // output staging queue depth
}

func (p Params) withDefaults() Params {
	if p.LinkBytes <= 0 {
		p.LinkBytes = 32
	}
	if p.RouterLat <= 0 {
		p.RouterLat = 2
	}
	if p.VOQDepth <= 0 {
		p.VOQDepth = 4
	}
	if p.OutDepth <= 0 {
		p.OutDepth = 4
	}
	return p
}

// Stats aggregates crossbar activity for utilization and power reporting.
type Stats struct {
	Cycles       int64
	PacketsMoved int64
	FlitsMoved   int64
	InFlits      []int64 // per input port
	OutFlits     []int64 // per output port
	StallNoRoom  int64   // grants blocked by a full output stage
}

// OutUtilization returns flits moved on output port o divided by elapsed
// cycles: the paper's NoC link utilization metric (Fig 2, Fig 17 discussion).
func (s *Stats) OutUtilization(o int) float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.OutFlits[o]) / float64(s.Cycles)
}

// MaxOutUtilization returns the maximum utilization across output ports.
func (s *Stats) MaxOutUtilization() float64 {
	best := 0.0
	for o := range s.OutFlits {
		if u := s.OutUtilization(o); u > best {
			best = u
		}
	}
	return best
}

// Crossbar is an Ins x Outs switch. Inject places packets into per-(in,out)
// VOQs; Tick arbitrates outputs round-robin over inputs, models per-port
// serialization, and delivers completed packets to the registered endpoints.
type Crossbar struct {
	P    Params
	Stat Stats

	// Chaos, when set, injects grant perturbations (extra serialization
	// cycles) and transient output jams. All queries happen on the Tick path
	// with affected work present, keeping the fault schedule
	// fast-path-invariant; nil injects nothing.
	Chaos *chaos.Injector

	// Feeds are the producers of the switch's inputs, run at the end of its
	// Tick: attached, every injection comes from one of them, on the clock
	// the switch ticks on.
	Feeds sim.Feeds[*mem.Access]

	// The VOQs: one bounded ring per (in,out) pair, flattened by pair index
	// out*Ins+in — pair k's ring is voqBuf[k*VOQDepth:(k+1)*VOQDepth], its
	// oldest packet at voqHead[k], voqLen[k] of them.
	voqBuf  []*mem.Packet
	voqHead []int32
	voqLen  []int32

	// The admission book, keyed by pair index: Inject takes a pair's credit
	// and the publication enters the packet into the pair's VOQ, so a blocked
	// output never HOL-blocks other outputs at the injection boundary.
	ingress

	voqBits   [][]uint64  // [out] bitmap of inputs with waiting packets
	inBusy    []sim.Cycle // input link busy until cycle
	outBusy   []sim.Cycle // output link busy until cycle
	rr        []int       // per-output round-robin pointer
	inFlight  *sim.DelayQueue[*mem.Packet]
	staged    []*sim.Queue[*mem.Packet] // per-output staging (post-traversal)
	endpoints []Endpoint
	lastTick  sim.Cycle // most recent Tick cycle, for stuck-flit auditing

	// Summary bitmaps: per-cycle work scales with occupied ports, not port
	// count. outPending marks outputs with >=1 waiting VOQ packet (voqPerOut
	// tracks the exact count so the bit clears on the last pop); stagedBits
	// marks outputs with staged packets. Arbitration and delivery iterate set
	// bits in ascending order — the same order as the full port scan they
	// replace, so results are bit-identical.
	outPending []uint64
	voqPerOut  []int32
	stagedBits []uint64

	// Occupancy counters for the quiescence fast path: packets waiting in
	// any VOQ and packets staged for delivery. With both zero the switch can
	// only act on in-flight traversals maturing at a known cycle.
	voqCount    int
	stagedCount int
}

// New creates a crossbar. Endpoints must be attached with SetEndpoint before
// the first Tick delivers traffic.
func New(p Params) *Crossbar {
	p = p.withDefaults()
	if p.Ins <= 0 || p.Outs <= 0 {
		panic(fmt.Sprintf("noc: crossbar %q needs positive port counts", p.Name))
	}
	pairs := p.Ins * p.Outs
	x := &Crossbar{
		P:         p,
		voqBuf:    make([]*mem.Packet, pairs*p.VOQDepth),
		voqHead:   make([]int32, pairs),
		voqLen:    make([]int32, pairs),
		inBusy:    make([]sim.Cycle, p.Ins),
		outBusy:   make([]sim.Cycle, p.Outs),
		rr:        make([]int, p.Outs),
		inFlight:  sim.NewDelayQueue[*mem.Packet](),
		staged:    make([]*sim.Queue[*mem.Packet], p.Outs),
		endpoints: make([]Endpoint, p.Outs),
	}
	x.ingress = newIngress(pairs, p.VOQDepth, x.enter)
	words := (p.Ins + 63) / 64
	x.voqBits = make([][]uint64, p.Outs)
	for o := range x.voqBits {
		x.voqBits[o] = make([]uint64, words)
	}
	outWords := (p.Outs + 63) / 64
	x.outPending = make([]uint64, outWords)
	x.stagedBits = make([]uint64, outWords)
	x.voqPerOut = make([]int32, p.Outs)
	for o := range x.staged {
		x.staged[o] = sim.NewQueue[*mem.Packet](p.OutDepth)
	}
	x.Stat.InFlits = make([]int64, p.Ins)
	x.Stat.OutFlits = make([]int64, p.Outs)
	return x
}

// SetEndpoint attaches the receiver for output port o.
func (x *Crossbar) SetEndpoint(o int, e Endpoint) { x.endpoints[o] = e }

// pair returns the index of the (in,out) pair's VOQ.
func (x *Crossbar) pair(in, out int) int { return out*x.P.Ins + in }

// Inject offers a packet at input port p.Src destined for output p.Dst. An
// admitted packet takes a credit of its (in,out) pair and waits on the
// pending list until the next publication — the edge barrier, or the start
// of the next Tick in immediate mode — so no injection of this edge is
// visible to arbitration before the next one wherever its feed runs. The
// packet's Flits field must be set (see mem.FlitCount). Returns false when
// the pair's VOQ is (projected) full; the sender retries later.
func (x *Crossbar) Inject(p *mem.Packet) bool {
	if p.Src < 0 || p.Src >= x.P.Ins || p.Dst < 0 || p.Dst >= x.P.Outs {
		panic(fmt.Sprintf("noc: %s inject with bad ports src=%d dst=%d", x.P.Name, p.Src, p.Dst))
	}
	if p.Flits <= 0 {
		panic("noc: packet with no flits")
	}
	return x.admit(x.pair(p.Src, p.Dst), p)
}

// enter appends a published packet to its pair's VOQ. The credit rule bounds
// every pair's VOQ plus pending injections by VOQDepth, so a full VOQ here is
// a broken credit and panics.
func (x *Crossbar) enter(p *mem.Packet) {
	depth := x.depth
	in, out := p.Src, p.Dst
	k := x.pair(in, out)
	n := x.voqLen[k]
	if n >= depth {
		panic(fmt.Sprintf("noc: %s VOQ overflow at publish (in %d, out %d)", x.P.Name, in, out))
	}
	slot := x.voqHead[k] + n
	if slot >= depth {
		slot -= depth
	}
	x.voqBuf[k*x.P.VOQDepth+int(slot)] = p
	x.voqLen[k] = n + 1
	x.voqBits[out][in>>6] |= 1 << uint(in&63)
	x.outPending[out>>6] |= 1 << uint(out&63)
	x.voqPerOut[out]++
	x.voqCount++
}

// popVOQ removes and returns the oldest packet of pair k's VOQ.
func (x *Crossbar) popVOQ(k int) *mem.Packet {
	h := x.voqHead[k]
	i := k*x.P.VOQDepth + int(h)
	p := x.voqBuf[i]
	x.voqBuf[i] = nil
	if h++; h == int32(x.P.VOQDepth) {
		h = 0
	}
	x.voqHead[k] = h
	x.voqLen[k]--
	return p
}

// Tick advances the switch one NoC-clock cycle, then runs its feeds.
func (x *Crossbar) Tick(now sim.Cycle) {
	x.lastTick = now
	x.Stat.Cycles++
	x.tickStart()
	x.deliverStaged(now)
	x.completeTraversals(now)
	x.arbitrate(now)
	x.Feeds.Run()
	x.tickEnd()
}

// NextWorkCycle implements sim.Sleeper. The switch has work while any packet
// waits in a VOQ or staging queue or a feed can move; with none, the only
// future event is the earliest in-flight traversal maturing. An idle tick
// advances only Stat.Cycles and lastTick, which SkipIdle compensates. In
// immediate mode anyone may inject between ticks, so the switch never
// sleeps.
func (x *Crossbar) NextWorkCycle(now sim.Cycle) sim.Cycle {
	if x.voqCount > 0 || x.stagedCount > 0 || !x.attached || x.Feeds.Busy() {
		return now
	}
	if t, ok := x.inFlight.NextReadyAt(); ok {
		if t <= now {
			return now
		}
		return t
	}
	return sim.WakeNever
}

// WakeSources implements sim.WakeSourcer: a packet enters an empty switch
// only through a feed, so the feeds' ports are its only wake sources. (A
// feed refused a credit needs no wake: the packets holding the credits keep
// the switch awake until they leave.)
func (x *Crossbar) WakeSources() []sim.PortRef { return x.Feeds.WakeSources() }

// SkipIdle implements sim.IdleSkipper. Stat.Cycles feeds OutUtilization, so
// the compensation must be exact for results to stay bit-identical.
func (x *Crossbar) SkipIdle(now sim.Cycle, n sim.Cycle) {
	x.Stat.Cycles += n
	x.lastTick = now
}

// deliverStaged pushes post-traversal packets into endpoints, in output-port
// order (deterministic: ascending set bits match the full-port scan).
func (x *Crossbar) deliverStaged(now sim.Cycle) {
	for wi, w := range x.stagedBits {
		for w != 0 {
			o := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			if x.Chaos.OutputJammed(now, o) {
				continue // jammed output delivers nothing this cycle
			}
			q := x.staged[o]
			for {
				p, ok := q.Peek()
				if !ok {
					x.stagedBits[wi] &^= 1 << uint(o%64)
					break
				}
				ep := x.endpoints[o]
				if ep == nil || !ep.Deliver(p) {
					break
				}
				q.Pop()
				x.stagedCount--
			}
		}
	}
}

// completeTraversals moves packets whose serialization finished into the
// output staging queues. If a stage is full the packet waits in flight
// (its ports were already released when granted, matching a buffered switch).
func (x *Crossbar) completeTraversals(now sim.Cycle) {
	for {
		p, ok := x.inFlight.PeekReady(now)
		if !ok {
			return
		}
		if x.staged[p.Dst].Full() {
			x.Stat.StallNoRoom++
			return
		}
		x.inFlight.PopReady(now)
		x.staged[p.Dst].Push(p)
		x.stagedBits[p.Dst/64] |= 1 << uint(p.Dst%64)
		x.stagedCount++
	}
}

// arbitrate performs one round of output-side round-robin matching. The
// occupancy bitmaps let per-cycle work scale with outputs that actually have
// traffic: outputs iterate in ascending set-bit order (identical to the full
// port scan), and the input pick walks set bits cyclically from the
// round-robin pointer (identical to the wrapped linear scan).
func (x *Crossbar) arbitrate(now sim.Cycle) {
	for wi, w := range x.outPending {
		for w != 0 {
			o := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if x.outBusy[o] > now {
				continue
			}
			if x.staged[o].Space() == 0 {
				continue // don't grant into a full stage
			}
			if x.Chaos.OutputJammed(now, o) {
				continue // jammed output grants nothing this cycle
			}
			in := x.pickInput(x.voqBits[o], x.rr[o], now)
			if in < 0 {
				continue
			}
			k := x.pair(in, o)
			p := x.popVOQ(k)
			x.grant(k)
			x.voqCount--
			x.voqPerOut[o]--
			if x.voqPerOut[o] == 0 {
				x.outPending[wi] &^= 1 << uint(o&63)
			}
			if x.voqLen[k] == 0 {
				x.voqBits[o][in>>6] &^= 1 << uint(in&63)
			}
			// Grant: serialize p.Flits flits at one per cycle on both ports.
			dur := sim.Cycle(p.Flits)
			dur += x.Chaos.GrantPerturb(now, o, p.Flits)
			x.inBusy[in] = now + dur
			x.outBusy[o] = now + dur
			x.inFlight.Push(p, now+dur+x.P.RouterLat)
			x.rr[o] = in + 1
			if x.rr[o] >= x.P.Ins {
				x.rr[o] = 0
			}
			x.Stat.PacketsMoved++
			x.Stat.FlitsMoved += int64(p.Flits)
			x.Stat.InFlits[in] += int64(p.Flits)
			x.Stat.OutFlits[o] += int64(p.Flits)
		}
	}
}

// pickInput returns the first input at or cyclically after start whose VOQ
// toward this output holds a packet (bit set in bm) and whose input link is
// free, or -1. The visit order is exactly the wrapped linear scan the round-
// robin arbiter specifies; busy inputs are skipped, not waited on.
func (x *Crossbar) pickInput(bm []uint64, start int, now sim.Cycle) int {
	wi := start >> 6
	w := bm[wi] &^ (1<<uint(start&63) - 1)
	for {
		for w != 0 {
			in := wi<<6 + bits.TrailingZeros64(w)
			if x.inBusy[in] <= now {
				return in
			}
			w &= w - 1
		}
		wi++
		if wi == len(bm) {
			break
		}
		w = bm[wi]
	}
	// Wrap around: inputs [0, start).
	last := start >> 6
	for wi = 0; wi <= last; wi++ {
		w = bm[wi]
		if wi == last {
			w &= 1<<uint(start&63) - 1
		}
		for w != 0 {
			in := wi<<6 + bits.TrailingZeros64(w)
			if x.inBusy[in] <= now {
				return in
			}
			w &= w - 1
		}
	}
	return -1
}

// Pending returns the number of packets buffered anywhere in the switch
// (unpublished, in VOQs, in flight, staged). Useful for drain checks.
func (x *Crossbar) Pending() int {
	return len(x.pending) + x.voqCount + x.inFlight.Len() + x.stagedCount
}

package noc

import (
	"fmt"

	"dcl1sim/internal/mem"
	"dcl1sim/internal/sim"
)

// Mesh is a W×H 2D mesh of 5-port routers (North/South/East/West/Local)
// with XY dimension-ordered routing — the scalable alternative to the
// paper's monolithic crossbars, provided as an extension study. Every
// endpoint (core, DC-L1 node, or L2 slice) attaches to one grid node's
// local port; packets serialize hop by hop at one flit per cycle per link.
//
// XY routing is deadlock-free on a mesh without further virtual channels,
// and as in the crossbar model, request and reply traffic use two physical
// Mesh instances.
type Mesh struct {
	P    MeshParams
	Stat MeshStats

	// Feeds are the producers of the mesh's injections, run at the end of
	// its Tick on the clock it ticks on.
	Feeds sim.Feeds[*mem.Access]

	routers   []meshRouter
	endpoints []Endpoint
	lastTick  sim.Cycle // most recent Tick cycle, for stuck-flit auditing

	// The admission book, keyed by source node: Inject takes the node's
	// credit and the publication enters the packet into the router's local
	// input buffer, so the credit counts that buffer's occupancy.
	ingress

	// held counts packets anywhere in the mesh (input buffers or router
	// transit) for the quiescence fast path; with none held, a tick only
	// advances Stat.Cycles and lastTick.
	held int

	// retryScratch is the per-router blocked-transit buffer, reused across
	// routers and ticks.
	retryScratch []meshTransit
}

// MeshParams configures a mesh.
type MeshParams struct {
	Name string
	// Net is the network the mesh stands in for: its series' domain and
	// family prefix.
	Net        string
	W, H       int
	LinkBytes  int
	QueueDepth int       // per-input-port buffer, in packets
	RouterLat  sim.Cycle // pipeline latency per hop
}

func (p MeshParams) withDefaults() MeshParams {
	if p.LinkBytes <= 0 {
		p.LinkBytes = 32
	}
	if p.QueueDepth <= 0 {
		p.QueueDepth = 4
	}
	if p.RouterLat <= 0 {
		p.RouterLat = 1
	}
	return p
}

// MeshStats aggregates mesh activity.
type MeshStats struct {
	Cycles    int64
	Packets   int64 // delivered packets
	FlitHops  int64 // flits × links traversed
	HopsSum   int64 // hops of delivered packets
	StallFull int64 // grants blocked by a full downstream buffer
}

const (
	dirN = iota
	dirS
	dirE
	dirW
	dirL
	numPorts
)

type meshPacket struct {
	p    *mem.Packet
	hops int
}

type meshRouter struct {
	in      [numPorts]*sim.Queue[meshPacket]
	outBusy [numPorts]sim.Cycle
	rr      [numPorts]int
	// inflight holds packets traversing this router toward an output;
	// pendingOut bounds it per output so a blocked downstream buffer
	// backpressures into the input queues instead of growing unboundedly.
	inflight   *sim.DelayQueue[meshTransit]
	pendingOut [numPorts]int
}

type meshTransit struct {
	mp  meshPacket
	out int
	// firstReady is the cycle the traversal first matured; retries of a
	// blocked transit keep it, so stuck-flit age survives re-queueing.
	firstReady sim.Cycle
}

// NewMesh builds a W×H mesh.
func NewMesh(p MeshParams) *Mesh {
	p = p.withDefaults()
	if p.W < 1 || p.H < 1 {
		panic(fmt.Sprintf("noc: mesh %q needs positive dimensions", p.Name))
	}
	m := &Mesh{
		P:         p,
		routers:   make([]meshRouter, p.W*p.H),
		endpoints: make([]Endpoint, p.W*p.H),
	}
	m.ingress = newIngress(p.W*p.H, p.QueueDepth, m.enter)
	for i := range m.routers {
		r := &m.routers[i]
		for d := 0; d < numPorts; d++ {
			r.in[d] = sim.NewQueue[meshPacket](p.QueueDepth)
		}
		r.inflight = sim.NewDelayQueue[meshTransit]()
	}
	return m
}

// Nodes returns the number of grid nodes.
func (m *Mesh) Nodes() int { return m.P.W * m.P.H }

// SetEndpoint attaches the receiver of node n's local port.
func (m *Mesh) SetEndpoint(n int, e Endpoint) { m.endpoints[n] = e }

// Inject offers a packet at node p.Src's local input; p.Dst is the
// destination node. An admitted packet takes its node's credit and waits on
// the pending list until the next publication, as on a crossbar. Returns
// false when the node's local input buffer is (projected) full.
func (m *Mesh) Inject(p *mem.Packet) bool {
	if p.Src < 0 || p.Src >= m.Nodes() || p.Dst < 0 || p.Dst >= m.Nodes() {
		panic(fmt.Sprintf("noc: mesh %s inject with bad nodes src=%d dst=%d", m.P.Name, p.Src, p.Dst))
	}
	if p.Flits <= 0 {
		panic("noc: mesh packet with no flits")
	}
	return m.admit(p.Src, p)
}

// enter moves a published packet into its router's local input buffer. The
// credit rule bounds that buffer plus pending injections by QueueDepth, so a
// full buffer here is a broken credit and panics.
func (m *Mesh) enter(p *mem.Packet) {
	if !m.routers[p.Src].in[dirL].Push(meshPacket{p: p}) {
		panic(fmt.Sprintf("noc: mesh %s local input overflow at publish (node %d)", m.P.Name, p.Src))
	}
	m.held++
}

// NextWorkCycle implements sim.Sleeper: the mesh is busy while any packet is
// buffered or in transit anywhere on the grid or a feed can move, and fully
// quiescent otherwise (transits always mature into retries or deliveries
// before held drops to zero, so no future-cycle wake needs tracking). In
// immediate mode anyone may inject between ticks, so the mesh never sleeps.
func (m *Mesh) NextWorkCycle(now sim.Cycle) sim.Cycle {
	if m.held > 0 || !m.attached || m.Feeds.Busy() {
		return now
	}
	return sim.WakeNever
}

// WakeSources implements sim.WakeSourcer: a packet enters an empty mesh only
// through a feed, so the feeds' ports are its only wake sources. (A feed
// refused a credit needs no wake: the packets holding the credits keep the
// mesh awake until they leave their input buffers.)
func (m *Mesh) WakeSources() []sim.PortRef { return m.Feeds.WakeSources() }

// SkipIdle implements sim.IdleSkipper.
func (m *Mesh) SkipIdle(now sim.Cycle, n sim.Cycle) {
	m.Stat.Cycles += n
	m.lastTick = now
}

func (m *Mesh) xy(n int) (x, y int) { return n % m.P.W, n / m.P.W }

// route returns the output direction at node n for destination dst
// (X first, then Y; dirL when arrived).
func (m *Mesh) route(n, dst int) int {
	cx, cy := m.xy(n)
	dx, dy := m.xy(dst)
	switch {
	case dx > cx:
		return dirE
	case dx < cx:
		return dirW
	case dy > cy:
		return dirS
	case dy < cy:
		return dirN
	default:
		return dirL
	}
}

// neighbor returns the node adjacent to n in direction d, or -1.
func (m *Mesh) neighbor(n, d int) int {
	x, y := m.xy(n)
	switch d {
	case dirN:
		y--
	case dirS:
		y++
	case dirE:
		x++
	case dirW:
		x--
	default:
		return -1
	}
	if x < 0 || x >= m.P.W || y < 0 || y >= m.P.H {
		return -1
	}
	return y*m.P.W + x
}

// opposite returns the input direction a packet arrives on after moving in
// direction d (moving East arrives on the neighbor's West input).
func opposite(d int) int {
	switch d {
	case dirN:
		return dirS
	case dirS:
		return dirN
	case dirE:
		return dirW
	case dirW:
		return dirE
	}
	return dirL
}

// Tick advances the mesh one cycle: deliver matured transits, arbitrate each
// router's outputs round-robin over its inputs, then run the feeds.
func (m *Mesh) Tick(now sim.Cycle) {
	m.lastTick = now
	m.Stat.Cycles++
	m.tickStart()
	// Phase 1: complete transits (hand packets to the next router's input
	// buffer, or to the endpoint for local outputs).
	for n := range m.routers {
		r := &m.routers[n]
		retry := m.retryScratch[:0]
		for {
			tr, ok := r.inflight.PopReady(now)
			if !ok {
				break
			}
			if tr.out == dirL {
				ep := m.endpoints[n]
				if ep == nil || !ep.Deliver(tr.mp.p) {
					m.Stat.StallFull++
					retry = append(retry, tr)
					continue
				}
				r.pendingOut[tr.out]--
				m.held--
				m.Stat.Packets++
				m.Stat.HopsSum += int64(tr.mp.hops)
				continue
			}
			nb := m.neighbor(n, tr.out)
			if nb < 0 {
				panic("noc: mesh transit off the grid")
			}
			if !m.routers[nb].in[opposite(tr.out)].Push(tr.mp) {
				m.Stat.StallFull++
				retry = append(retry, tr)
				continue
			}
			r.pendingOut[tr.out]--
		}
		// Blocked transits retry next cycle; a stall on one output must not
		// stall transits headed elsewhere.
		for _, tr := range retry {
			r.inflight.Push(tr, now+1)
		}
		m.retryScratch = retry[:0]
	}
	// Phase 2: arbitration. One grant per output port per router per cycle;
	// a granted packet occupies the output for Flits cycles (serialization).
	for n := range m.routers {
		r := &m.routers[n]
		for out := 0; out < numPorts; out++ {
			if r.outBusy[out] > now || r.pendingOut[out] >= 2 {
				continue
			}
			start := r.rr[out]
			for k := 0; k < numPorts; k++ {
				in := (start + k) % numPorts
				mp, ok := r.in[in].Peek()
				if !ok {
					continue
				}
				if m.route(n, mp.p.Dst) != out {
					continue
				}
				r.in[in].Pop()
				if in == dirL {
					m.grant(n)
				}
				mp.hops++
				dur := sim.Cycle(mp.p.Flits)
				r.outBusy[out] = now + dur
				r.pendingOut[out]++
				ready := now + dur + m.P.RouterLat
				r.inflight.Push(meshTransit{mp: mp, out: out, firstReady: ready}, ready)
				r.rr[out] = (in + 1) % numPorts
				m.Stat.FlitHops += int64(mp.p.Flits)
				break
			}
		}
	}
	m.Feeds.Run()
	m.tickEnd()
}

// Pending returns packets buffered anywhere in the mesh (drain checks).
func (m *Mesh) Pending() int {
	total := len(m.pending)
	for n := range m.routers {
		r := &m.routers[n]
		for d := 0; d < numPorts; d++ {
			total += r.in[d].Len()
		}
		total += r.inflight.Len()
	}
	return total
}

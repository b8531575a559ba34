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

	inj       []*sim.Port[*mem.Packet] // per-node injection port (the two-phase boundary)
	routers   []meshRouter
	endpoints []Endpoint
	lastTick  sim.Cycle // most recent Tick cycle, for stuck-flit auditing

	// credit[n] is the projected occupancy of router n's local input buffer:
	// committed contents plus packets still in (or staged for) inj[n].
	// Inject admits while credit < QueueDepth — the old direct-buffer rule.
	// Increments belong to node n's single producer; decrements (local-input
	// grants) are recorded in granted during Tick and applied at the edge
	// barrier (or at the end of Tick in immediate mode).
	// returned counts the credits returned so far.
	credit   []int32
	granted  []int32
	returned int64
	attached bool

	// pending counts packets anywhere in the mesh (input buffers or router
	// transit) for the quiescence fast path; with zero pending, a tick only
	// advances Stat.Cycles and lastTick.
	pending int

	// Free lists recycle the per-packet wrappers so a saturated mesh runs
	// allocation-free: meshPackets live from Inject to local delivery,
	// meshTransits from grant to completion. retryScratch is the per-router
	// blocked-transit buffer, reused across routers and ticks.
	freePkt      []*meshPacket
	freeTr       []*meshTransit
	retryScratch []*meshTransit
}

// MeshParams configures a mesh.
type MeshParams struct {
	Name       string
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

// MeanHops returns average hops per delivered packet.
func (s *MeshStats) MeanHops() float64 {
	if s.Packets == 0 {
		return 0
	}
	return float64(s.HopsSum) / float64(s.Packets)
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
	in      [numPorts]*sim.Queue[*meshPacket]
	outBusy [numPorts]sim.Cycle
	rr      [numPorts]int
	// inflight holds packets traversing this router toward an output;
	// pendingOut bounds it per output so a blocked downstream buffer
	// backpressures into the input queues instead of growing unboundedly.
	inflight   *sim.DelayQueue[*meshTransit]
	pendingOut [numPorts]int
}

type meshTransit struct {
	mp  *meshPacket
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
		inj:       make([]*sim.Port[*mem.Packet], p.W*p.H),
		routers:   make([]meshRouter, p.W*p.H),
		endpoints: make([]Endpoint, p.W*p.H),
		credit:    make([]int32, p.W*p.H),
	}
	for i := range m.routers {
		// Unbounded port: admission is bounded by the credit check.
		m.inj[i] = sim.NewPort[*mem.Packet](0)
		r := &m.routers[i]
		for d := 0; d < numPorts; d++ {
			r.in[d] = sim.NewQueue[*meshPacket](p.QueueDepth)
		}
		r.inflight = sim.NewDelayQueue[*meshTransit]()
	}
	return m
}

// Nodes returns the number of grid nodes.
func (m *Mesh) Nodes() int { return m.P.W * m.P.H }

// SetEndpoint attaches the receiver of node n's local port.
func (m *Mesh) SetEndpoint(n int, e Endpoint) { m.endpoints[n] = e }

// Inject offers a packet at node p.Src's local input; p.Dst is the
// destination node. The packet lands in the node's injection port — the
// mesh's two-phase boundary: wrapping in a meshPacket (free-list state) and
// the pending count happen when Tick drains the port, so concurrent
// producers never touch shared mesh state. Returns false when the injection
// port is full.
func (m *Mesh) Inject(p *mem.Packet) bool {
	if p.Src < 0 || p.Src >= m.Nodes() || p.Dst < 0 || p.Dst >= m.Nodes() {
		panic(fmt.Sprintf("noc: mesh %s inject with bad nodes src=%d dst=%d", m.P.Name, p.Src, p.Dst))
	}
	if p.Flits <= 0 {
		panic("noc: mesh packet with no flits")
	}
	if m.credit[p.Src] >= int32(m.P.QueueDepth) {
		return false
	}
	if !m.inj[p.Src].Push(p) {
		return false
	}
	m.credit[p.Src]++
	return true
}

// AttachPorts switches the injection ports to two-phase mode on clk (the
// clock every producer of this mesh ticks on) and moves the credit-grant
// application to clk's edge barrier.
func (m *Mesh) AttachPorts(clk *sim.Clock) {
	for _, p := range m.inj {
		p.Attach(clk)
	}
	m.attached = true
	clk.OnBarrier(m.applyCredits)
}

// applyCredits returns the credits of this edge's local-input grants to the
// producers. Runs at the edge barrier (attached) or at the end of Tick
// (immediate mode) — never concurrently with Inject.
func (m *Mesh) applyCredits() {
	for _, n := range m.granted {
		m.credit[n]--
	}
	m.returned += int64(len(m.granted))
	m.granted = m.granted[:0]
}

// CreditsReturned counts the injection credits returned so far: what a feed
// refused a credit waits to see move (sim.Feed.Credits).
func (m *Mesh) CreditsReturned() int64 { return m.returned }

// drainInject moves committed injections into the routers' local input
// buffers. Runs at the start of Tick so an immediate-mode injection still
// arbitrates the same cycle. The credit admission rule guarantees room: the
// local buffer plus in-port packets per node never exceed QueueDepth.
func (m *Mesh) drainInject() {
	for n, port := range m.inj {
		for {
			p, ok := port.Peek()
			if !ok {
				break
			}
			if m.routers[n].in[dirL].Full() {
				break
			}
			port.Pop()
			m.routers[n].in[dirL].Push(m.getMeshPacket(p))
			m.pending++
		}
	}
}

func (m *Mesh) getMeshPacket(p *mem.Packet) *meshPacket {
	if n := len(m.freePkt); n > 0 {
		mp := m.freePkt[n-1]
		m.freePkt = m.freePkt[:n-1]
		mp.p, mp.hops = p, 0
		return mp
	}
	return &meshPacket{p: p}
}

func (m *Mesh) putMeshPacket(mp *meshPacket) {
	mp.p = nil
	m.freePkt = append(m.freePkt, mp)
}

func (m *Mesh) getTransit(mp *meshPacket, out int, firstReady sim.Cycle) *meshTransit {
	if n := len(m.freeTr); n > 0 {
		tr := m.freeTr[n-1]
		m.freeTr = m.freeTr[:n-1]
		tr.mp, tr.out, tr.firstReady = mp, out, firstReady
		return tr
	}
	return &meshTransit{mp: mp, out: out, firstReady: firstReady}
}

func (m *Mesh) putTransit(tr *meshTransit) {
	tr.mp = nil
	m.freeTr = append(m.freeTr, tr)
}

// NextWorkCycle implements sim.Sleeper: the mesh is busy while any packet is
// buffered or in transit anywhere on the grid or a feed can move, and fully
// quiescent otherwise (transits always mature into retries or deliveries
// before pending drops to zero, so no future-cycle wake needs tracking).
func (m *Mesh) NextWorkCycle(now sim.Cycle) sim.Cycle {
	if m.pending > 0 || m.Feeds.Busy() {
		return now
	}
	for _, p := range m.inj {
		if !p.Empty() {
			return now
		}
	}
	return sim.WakeNever
}

// WakeSources implements sim.WakeSourcer: the injection ports and the
// feeds' ports. (A feed refused a credit needs no wake: the packets holding
// the credits keep the mesh awake until they leave their input buffers.)
func (m *Mesh) WakeSources() []sim.PortRef {
	refs := make([]sim.PortRef, len(m.inj))
	for i, p := range m.inj {
		refs[i] = p.Ref()
	}
	return append(refs, m.Feeds.WakeSources()...)
}

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
	m.drainInject()
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
				m.pending--
				m.Stat.Packets++
				m.Stat.HopsSum += int64(tr.mp.hops)
				m.putMeshPacket(tr.mp)
				m.putTransit(tr)
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
			m.putTransit(tr)
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
					m.granted = append(m.granted, int32(n))
				}
				mp.hops++
				dur := sim.Cycle(mp.p.Flits)
				r.outBusy[out] = now + dur
				r.pendingOut[out]++
				ready := now + dur + m.P.RouterLat
				r.inflight.Push(m.getTransit(mp, out, ready), ready)
				r.rr[out] = (in + 1) % numPorts
				m.Stat.FlitHops += int64(mp.p.Flits)
				break
			}
		}
	}
	m.Feeds.Run()
	if !m.attached {
		m.applyCredits()
	}
}

// Pending returns packets buffered anywhere in the mesh (drain checks).
func (m *Mesh) Pending() int {
	total := 0
	for n := range m.routers {
		total += m.inj[n].Len()
		r := &m.routers[n]
		for d := 0; d < numPorts; d++ {
			total += r.in[d].Len()
		}
		total += r.inflight.Len()
	}
	return total
}

// Package dcl1 implements the DeCoupled-L1 node of the paper (Fig 3): a
// DC-L1 cache with four queues bridging it to the two networks —
//
//	Q1  requests arriving from GPU cores via NoC#1
//	Q2  replies departing to GPU cores via NoC#1
//	Q3  requests departing to L2/memory via NoC#2
//	Q4  replies arriving from L2/memory via NoC#2
//
// — plus the home-selection mappings for the private (PrY), shared (ShY),
// and clustered (ShY+CZ) organizations. Non-L1 traffic (instruction/texture/
// constant misses) and atomics bypass the DC-L1$ on both directions
// (Q1→Q3 and Q4→Q2), as in Section III.
package dcl1

import (
	"fmt"

	"dcl1sim/internal/cache"
	"dcl1sim/internal/mem"
	"dcl1sim/internal/sim"
)

// Mapping selects the home DC-L1 node for an access.
type Mapping interface {
	// Home returns the DC-L1 node index serving `line` for requests from
	// `core`.
	Home(core int, line uint64) int
	// Nodes returns the number of DC-L1 nodes.
	Nodes() int
}

// PrivateMap is the PrY organization: each group of Cores/Nodes cores owns
// one DC-L1 node; any line may live in any node (replication across groups).
type PrivateMap struct {
	Cores, NodeCount int
}

// Home implements Mapping.
func (m PrivateMap) Home(core int, line uint64) int {
	per := m.Cores / m.NodeCount
	if per < 1 {
		per = 1
	}
	h := core / per
	if h >= m.NodeCount {
		h = m.NodeCount - 1
	}
	return h
}

// Nodes implements Mapping.
func (m PrivateMap) Nodes() int { return m.NodeCount }

// SharedMap is the ShY organization: home = line mod Y; exactly one node may
// cache any given line (zero replication).
type SharedMap struct {
	NodeCount int
}

// Home implements Mapping.
func (m SharedMap) Home(core int, line uint64) int {
	return int(line % uint64(m.NodeCount))
}

// Nodes implements Mapping.
func (m SharedMap) Nodes() int { return m.NodeCount }

// ClusteredMap is the ShY+CZ organization: a cluster of Cores/Clusters cores
// shares M = Nodes/Clusters DC-L1 nodes; within the cluster the home is
// line mod M (Section VI-A: ⌈log2(Y/Z)⌉ home bits). Replication is limited
// to at most Clusters copies of a line chip-wide.
type ClusteredMap struct {
	Cores, NodeCount, Clusters int
}

// Home implements Mapping.
func (m ClusteredMap) Home(core int, line uint64) int {
	mPer := m.NodeCount / m.Clusters
	coresPer := m.Cores / m.Clusters
	if coresPer < 1 {
		coresPer = 1
	}
	cluster := core / coresPer
	if cluster >= m.Clusters {
		cluster = m.Clusters - 1
	}
	return cluster*mPer + int(line%uint64(mPer))
}

// Nodes implements Mapping.
func (m ClusteredMap) Nodes() int { return m.NodeCount }

// Params configures a DC-L1 node.
type Params struct {
	ID       int
	Cache    cache.Params
	QueueCap int // capacity of Q1..Q4 (Fig 3: four 128 B entries)
	// PumpPerCycle bounds queue movements per cycle in each direction.
	PumpPerCycle int
}

func (p Params) withDefaults() Params {
	if p.QueueCap <= 0 {
		p.QueueCap = 4
	}
	if p.PumpPerCycle <= 0 {
		p.PumpPerCycle = 2
	}
	return p
}

// Stats counts node-level traffic.
type Stats struct {
	BypassRequests int64 // non-L1/atomic requests moved Q1→Q3
	BypassReplies  int64 // non-L1/atomic replies moved Q4→Q2
}

// Node is one DC-L1 node.
type Node struct {
	P    Params
	Ctrl *cache.Ctrl
	Q1   *sim.Port[*mem.Access]
	Q2   *sim.Port[*mem.Access]
	Q3   *sim.Port[*mem.Access]
	Q4   *sim.Port[*mem.Access]
	Stat Stats

	// Feeds run at the end of Tick: glue between other components' ports
	// on the node's clock that it hosts (sim.Feed) — where a core sits next
	// to its private L1, the moves between the core's ports and Q1/Q2.
	Feeds sim.Feeds[*mem.Access]
}

// New builds a DC-L1 node; tracker feeds the replication statistics (nil:
// not measured).
func New(p Params, tracker *cache.Presence) *Node {
	p = p.withDefaults()
	if p.Cache.Name == "" {
		p.Cache.Name = fmt.Sprintf("dcl1-%d", p.ID)
	}
	return &Node{
		P:    p,
		Ctrl: cache.New(p.Cache, p.ID, tracker),
		Q1:   sim.NewPort[*mem.Access](p.QueueCap),
		Q2:   sim.NewPort[*mem.Access](p.QueueCap),
		Q3:   sim.NewPort[*mem.Access](p.QueueCap),
		Q4:   sim.NewPort[*mem.Access](p.QueueCap),
	}
}

// Tick advances the node one cycle: pump Q1/Q4 into the cache (or around
// it), tick the cache, pump its outputs into Q2/Q3, then run the feeds.
func (n *Node) Tick(now sim.Cycle) {
	n.pumpIn()
	n.Ctrl.Tick(now)
	n.pumpOut()
	n.Feeds.Run()
}

// NextWorkCycle implements sim.Sleeper. The node has work when one of its four
// pumps can move its head — Q1 and Q4 inbound (into the cache, or around it
// for bypass traffic), the cache's Out and MissOut outbound — each of which a
// full destination refuses; with every pump empty or refused it sleeps exactly
// as long as its cache controller does. What can lift a refusal is a fill or
// a request arriving, or space in Q2 or Q3: the controller's own four queues
// change only when the node ticks. A feed that can move is work too.
func (n *Node) NextWorkCycle(now sim.Cycle) sim.Cycle {
	if n.Feeds.Busy() {
		return now
	}
	if a, ok := n.Q1.Peek(); ok && !n.requestDst(a).Full() {
		return now
	}
	if a, ok := n.Q4.Peek(); ok && !n.replyDst(a).Full() {
		return now
	}
	if !n.Ctrl.Out.Empty() && !n.Q2.Full() || !n.Ctrl.MissOut.Empty() && !n.Q3.Full() {
		return now
	}
	return n.Ctrl.NextWorkCycle(now)
}

// WakeSources implements sim.WakeSourcer: the two inbound bridge queues are
// the only ports another component fills, the two outbound ones the only
// ports another component drains. The cache controller's own four are filled
// and drained by the node itself, so they are frozen while it sleeps. The
// feeds add theirs.
func (n *Node) WakeSources() []sim.PortRef {
	refs := []sim.PortRef{n.Q1.Ref(), n.Q4.Ref(), n.Q2.SpaceRef(), n.Q3.SpaceRef()}
	return append(refs, n.Feeds.WakeSources()...)
}

// SkipIdle implements sim.IdleSkipper by forwarding to the cache controller
// (the node itself keeps no per-cycle counters).
func (n *Node) SkipIdle(now sim.Cycle, nc sim.Cycle) { n.Ctrl.SkipIdle(now, nc) }

func bypasses(k mem.Kind) bool { return k == mem.NonL1 || k == mem.Atomic }

// requestDst is where pumpIn moves request a from Q1: around the cache into
// Q3 for bypass traffic, into the cache otherwise. replyDst is the same for a
// reply leaving Q4.
func (n *Node) requestDst(a *mem.Access) *sim.Port[*mem.Access] {
	if bypasses(a.Kind) {
		return n.Q3
	}
	return n.Ctrl.In
}

func (n *Node) replyDst(a *mem.Access) *sim.Port[*mem.Access] {
	if bypasses(a.Kind) {
		return n.Q2
	}
	return n.Ctrl.FillIn
}

func (n *Node) pumpIn() {
	for i := 0; i < n.P.PumpPerCycle; i++ {
		a, ok := n.Q1.Peek()
		if !ok {
			break
		}
		dst := n.requestDst(a)
		if dst.Full() {
			break
		}
		n.Q1.Pop()
		dst.Push(a)
		if dst == n.Q3 {
			n.Stat.BypassRequests++
		}
	}
	for i := 0; i < n.P.PumpPerCycle; i++ {
		a, ok := n.Q4.Peek()
		if !ok {
			break
		}
		dst := n.replyDst(a)
		if dst.Full() {
			break
		}
		n.Q4.Pop()
		dst.Push(a)
		if dst == n.Q2 {
			n.Stat.BypassReplies++
		}
	}
}

func (n *Node) pumpOut() {
	for i := 0; i < n.P.PumpPerCycle; i++ {
		a, ok := n.Ctrl.Out.Peek()
		if !ok || n.Q2.Full() {
			break
		}
		n.Ctrl.Out.Pop()
		n.Q2.Push(a)
	}
	for i := 0; i < n.P.PumpPerCycle; i++ {
		a, ok := n.Ctrl.MissOut.Peek()
		if !ok || n.Q3.Full() {
			break
		}
		n.Ctrl.MissOut.Pop()
		n.Q3.Push(a)
	}
}

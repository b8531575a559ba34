package dcl1

import (
	"testing"
	"testing/quick"

	"dcl1sim/internal/cache"
	"dcl1sim/internal/mem"
	"dcl1sim/internal/sim"
)

func newNode() *Node {
	return New(Params{
		ID: 0,
		Cache: cache.Params{
			Sets: 8, Ways: 2, HitLatency: 2, Policy: cache.WriteEvict,
		},
	}, nil)
}

func spin(n *Node, from sim.Cycle, cnt int) sim.Cycle {
	for i := 0; i < cnt; i++ {
		n.Tick(from + sim.Cycle(i))
	}
	return from + sim.Cycle(cnt)
}

func TestNodeReadMissFlow(t *testing.T) {
	n := newNode()
	req := &mem.Access{Kind: mem.Load, Line: 7, ReqBytes: 32, Core: 3}
	n.Q1.Push(req)
	now := spin(n, 0, 4)
	// Miss must surface on Q3 toward L2.
	f, ok := n.Q3.Pop()
	if !ok || f.Kind != mem.Load || f.Line != 7 {
		t.Fatalf("Q3 = %+v ok=%v", f, ok)
	}
	// Fill comes back on Q4; reply must appear on Q2 for core 3.
	n.Q4.Push(f.Reply())
	spin(n, now, 6)
	r, ok := n.Q2.Pop()
	if !ok || !r.IsReply || r.Core != 3 || r.Line != 7 {
		t.Fatalf("Q2 = %+v ok=%v", r, ok)
	}
}

func TestNodeReadHitFlow(t *testing.T) {
	n := newNode()
	// Install via miss+fill.
	n.Q1.Push(&mem.Access{Kind: mem.Load, Line: 9, ReqBytes: 32})
	now := spin(n, 0, 3)
	f, _ := n.Q3.Pop()
	n.Q4.Push(f.Reply())
	now = spin(n, now, 6)
	n.Q2.Pop()
	// Hit: reply without Q3 traffic.
	n.Q1.Push(&mem.Access{Kind: mem.Load, Line: 9, ReqBytes: 32})
	spin(n, now, 8)
	if n.Q3.Len() != 0 {
		t.Fatal("hit must not forward to L2")
	}
	if r, ok := n.Q2.Pop(); !ok || !r.IsReply {
		t.Fatalf("hit reply missing: %+v", r)
	}
	if n.Ctrl.Stat.LoadHits != 1 {
		t.Fatalf("hits = %d", n.Ctrl.Stat.LoadHits)
	}
}

func TestNodeNonL1Bypass(t *testing.T) {
	n := newNode()
	n.Q1.Push(&mem.Access{Kind: mem.NonL1, Line: 100, ReqBytes: mem.LineBytes})
	spin(n, 0, 3)
	f, ok := n.Q3.Pop()
	if !ok || f.Kind != mem.NonL1 {
		t.Fatalf("bypass request missing: %+v", f)
	}
	if n.Ctrl.Stat.Loads != 0 {
		t.Fatal("bypass traffic must not touch the DC-L1$")
	}
	if n.Stat.BypassRequests != 1 {
		t.Fatalf("BypassRequests = %d", n.Stat.BypassRequests)
	}
	// Reply bypasses in the other direction.
	n.Q4.Push(f.Reply())
	spin(n, 3, 3)
	r, ok := n.Q2.Pop()
	if !ok || r.Kind != mem.NonL1 || !r.IsReply {
		t.Fatalf("bypass reply missing: %+v", r)
	}
	if n.Stat.BypassReplies != 1 {
		t.Fatalf("BypassReplies = %d", n.Stat.BypassReplies)
	}
}

func TestNodeAtomicBypass(t *testing.T) {
	n := newNode()
	n.Q1.Push(&mem.Access{Kind: mem.Atomic, Line: 5, ReqBytes: 4})
	spin(n, 0, 3)
	if f, ok := n.Q3.Pop(); !ok || f.Kind != mem.Atomic {
		t.Fatalf("atomic must bypass to L2: %+v", f)
	}
}

func TestNodeWriteEvictFlow(t *testing.T) {
	n := newNode()
	// Install line 4.
	n.Q1.Push(&mem.Access{Kind: mem.Load, Line: 4, ReqBytes: 32})
	now := spin(n, 0, 3)
	f, _ := n.Q3.Pop()
	n.Q4.Push(f.Reply())
	now = spin(n, now, 6)
	n.Q2.Pop()
	// Write hit: evicts locally, forwards the write; ACK returns to core.
	n.Q1.Push(&mem.Access{Kind: mem.Store, Line: 4, ReqBytes: 32, Core: 1})
	now = spin(n, now, 4)
	w, ok := n.Q3.Pop()
	if !ok || w.Kind != mem.Store {
		t.Fatalf("store not forwarded: %+v", w)
	}
	if n.Ctrl.Arr.Contains(4) {
		t.Fatal("write-evict left the line resident")
	}
	n.Q4.Push(w.Reply())
	spin(n, now, 4)
	ack, ok := n.Q2.Pop()
	if !ok || ack.Kind != mem.Store || !ack.IsReply || ack.Core != 1 {
		t.Fatalf("write ACK missing: %+v", ack)
	}
}

func TestNodeQueueBackpressure(t *testing.T) {
	n := New(Params{ID: 0, QueueCap: 2, Cache: cache.Params{Sets: 2, Ways: 1, HitLatency: 1, Policy: cache.WriteEvict}}, nil)
	ok1 := n.Q1.Push(&mem.Access{Kind: mem.Load, Line: 1})
	ok2 := n.Q1.Push(&mem.Access{Kind: mem.Load, Line: 2})
	ok3 := n.Q1.Push(&mem.Access{Kind: mem.Load, Line: 3})
	if !ok1 || !ok2 || ok3 {
		t.Fatalf("Q1 capacity must be 2: %v %v %v", ok1, ok2, ok3)
	}
}

func TestPrivateMapGroups(t *testing.T) {
	m := PrivateMap{Cores: 80, NodeCount: 40}
	if m.Home(0, 123) != 0 || m.Home(1, 999) != 0 {
		t.Fatal("cores 0,1 must map to node 0")
	}
	if m.Home(2, 5) != 1 || m.Home(79, 5) != 39 {
		t.Fatal("grouping broken")
	}
	// Line-independence.
	if m.Home(10, 1) != m.Home(10, 2) {
		t.Fatal("private map must ignore the line")
	}
	if m.Nodes() != 40 {
		t.Fatal("Nodes()")
	}
}

func TestSharedMapInterleaves(t *testing.T) {
	m := SharedMap{NodeCount: 40}
	for line := uint64(0); line < 80; line++ {
		if got := m.Home(3, line); got != int(line%40) {
			t.Fatalf("Home(%d) = %d", line, got)
		}
	}
	// Core-independence: any core reaches the same home.
	if m.Home(0, 77) != m.Home(79, 77) {
		t.Fatal("shared map must ignore the core")
	}
}

func TestClusteredMapHomeBits(t *testing.T) {
	m := ClusteredMap{Cores: 80, NodeCount: 40, Clusters: 10} // M=4, 8 cores/cluster
	// Core 0 (cluster 0): homes 0..3 by line%4.
	for line := uint64(0); line < 8; line++ {
		want := int(line % 4)
		if got := m.Home(0, line); got != want {
			t.Fatalf("cluster0 Home(%d) = %d, want %d", line, got, want)
		}
	}
	// Core 8 (cluster 1): homes 4..7.
	if got := m.Home(8, 0); got != 4 {
		t.Fatalf("cluster1 base = %d", got)
	}
	if got := m.Home(79, 3); got != 9*4+3 {
		t.Fatalf("last cluster home = %d", got)
	}
}

// Property: every mapping returns a valid node, and for the clustered map a
// core only ever reaches nodes of its own cluster.
func TestMappingRangeProperty(t *testing.T) {
	private := PrivateMap{Cores: 80, NodeCount: 40}
	shared := SharedMap{NodeCount: 40}
	clustered := ClusteredMap{Cores: 80, NodeCount: 40, Clusters: 10}
	f := func(core uint8, line uint64) bool {
		c := int(core) % 80
		for _, m := range []Mapping{private, shared, clustered} {
			h := m.Home(c, line)
			if h < 0 || h >= m.Nodes() {
				return false
			}
		}
		h := clustered.Home(c, line)
		cl := c / 8 // 80 cores in 10 clusters
		return h >= cl*4 && h < (cl+1)*4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the shared map admits exactly one home per line (the
// zero-replication guarantee), i.e. it is independent of the requesting core.
func TestSharedSingleHomeProperty(t *testing.T) {
	m := SharedMap{NodeCount: 40}
	f := func(a, b uint8, line uint64) bool {
		return m.Home(int(a)%80, line) == m.Home(int(b)%80, line)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: clustered map with Z=1 equals the shared map; Z=Nodes equals a
// private map (C1 == Sh40, C40 == Pr40 — Fig 11 note).
func TestClusteredDegeneratesProperty(t *testing.T) {
	sh := SharedMap{NodeCount: 40}
	c1 := ClusteredMap{Cores: 80, NodeCount: 40, Clusters: 1}
	pr := PrivateMap{Cores: 80, NodeCount: 40}
	c40 := ClusteredMap{Cores: 80, NodeCount: 40, Clusters: 40}
	f := func(core uint8, line uint64) bool {
		c := int(core) % 80
		return c1.Home(c, line) == sh.Home(c, line) &&
			c40.Home(c, line) == pr.Home(c, line)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

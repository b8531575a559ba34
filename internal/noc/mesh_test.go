package noc

import (
	"testing"
	"testing/quick"

	"dcl1sim/internal/mem"
	"dcl1sim/internal/sim"
)

func newMesh(w, h int) (*Mesh, []*sink) {
	m := NewMesh(MeshParams{Name: "m", W: w, H: h})
	sinks := make([]*sink, w*h)
	for n := 0; n < w*h; n++ {
		sinks[n] = &sink{}
		m.SetEndpoint(n, sinks[n])
	}
	return m, sinks
}

func meshTicks(m *Mesh, from sim.Cycle, n int) sim.Cycle {
	for i := 0; i < n; i++ {
		m.Tick(from + sim.Cycle(i))
	}
	return from + sim.Cycle(n)
}

func TestMeshDeliversLocal(t *testing.T) {
	m, sinks := newMesh(2, 2)
	m.Inject(pkt(0, 0, 1)) // same node: local turnaround
	meshTicks(m, 0, 10)
	if len(sinks[0].got) != 1 {
		t.Fatalf("local delivery failed: %d", len(sinks[0].got))
	}
}

func TestMeshDeliversAcross(t *testing.T) {
	m, sinks := newMesh(4, 4)
	m.Inject(pkt(0, 15, 2)) // corner to corner: 6 hops + local
	meshTicks(m, 0, 100)
	if len(sinks[15].got) != 1 {
		t.Fatalf("corner-to-corner failed: %d", len(sinks[15].got))
	}
	if mean := float64(m.Stat.HopsSum) / float64(m.Stat.Packets); mean < 6 {
		t.Fatalf("mean hops = %f, want >= 6 for corner route", mean)
	}
}

func TestMeshXYPathLength(t *testing.T) {
	// Manhattan distance + 1 (the final local hop) per packet.
	m, sinks := newMesh(5, 5)
	m.Inject(pkt(0, 13, 1)) // (0,0) -> (3,2): 5 links + local = 6 hops
	meshTicks(m, 0, 100)
	if len(sinks[13].got) != 1 {
		t.Fatal("not delivered")
	}
	if m.Stat.HopsSum != 6 {
		t.Fatalf("hops = %d, want 6 (XY route)", m.Stat.HopsSum)
	}
}

func TestMeshLatencyScalesWithDistance(t *testing.T) {
	lat := func(dst int) sim.Cycle {
		m, sinks := newMesh(8, 8)
		m.Inject(pkt(0, dst, 1))
		for c := sim.Cycle(0); c < 500; c++ {
			m.Tick(c)
			if len(sinks[dst].got) == 1 {
				return c
			}
		}
		return -1
	}
	near, far := lat(1), lat(63)
	if near < 0 || far < 0 {
		t.Fatal("delivery failed")
	}
	if far <= near {
		t.Fatalf("far (%d) must take longer than near (%d)", far, near)
	}
}

func TestMeshBackpressure(t *testing.T) {
	m, _ := newMesh(2, 1)
	m.SetEndpoint(1, EndpointFunc(func(*mem.Packet) bool { return false }))
	accepted := 0
	for i := 0; i < 100; i++ {
		if m.Inject(pkt(0, 1, 1)) {
			accepted++
		}
		m.Tick(sim.Cycle(i))
	}
	if accepted > 30 {
		t.Fatalf("no backpressure: accepted %d", accepted)
	}
	if m.Stat.StallFull == 0 {
		t.Fatal("stall counter never moved")
	}
}

func TestMeshRejectsBadInput(t *testing.T) {
	m, _ := newMesh(2, 2)
	for _, bad := range []*mem.Packet{pkt(-1, 0, 1), pkt(0, 9, 1), pkt(0, 0, 0)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("inject %+v did not panic", bad)
				}
			}()
			m.Inject(bad)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("zero-dimension mesh accepted")
		}
	}()
	NewMesh(MeshParams{W: 0, H: 3})
}

// Property: conservation — every injected packet arrives exactly once at its
// destination, for arbitrary traffic on a 4x3 mesh.
func TestMeshConservationProperty(t *testing.T) {
	f := func(routes []uint16) bool {
		if len(routes) > 60 {
			routes = routes[:60]
		}
		m, sinks := newMesh(4, 3)
		want := 0
		i := 0
		for c := sim.Cycle(0); ; c++ {
			if c > 20000 {
				return false
			}
			if i < len(routes) {
				r := routes[i]
				src := int(r) % 12
				dst := int(r/12) % 12
				flits := int(r/144)%4 + 1
				if m.Inject(&mem.Packet{Acc: &mem.Access{ID: uint64(i)}, Src: src, Dst: dst, Flits: flits}) {
					want++
					i++
				}
			}
			m.Tick(c)
			got := 0
			for _, s := range sinks {
				got += len(s.got)
			}
			if i == len(routes) && got == want && m.Pending() == 0 {
				break
			}
		}
		seen := map[uint64]bool{}
		for n, s := range sinks {
			for _, p := range s.got {
				if seen[p.Acc.ID] || p.Dst != n {
					return false // duplicate or misrouted
				}
				seen[p.Acc.ID] = true
			}
		}
		return len(seen) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMeshManyToOneFairness(t *testing.T) {
	// Saturate one sink from all four corners of a 3x3: all flows progress.
	m, sinks := newMesh(3, 3)
	const per = 10
	srcs := []int{0, 2, 6, 8}
	sent := make([]int, len(srcs))
	for c := sim.Cycle(0); c < 5000; c++ {
		for i, s := range srcs {
			if sent[i] < per {
				if m.Inject(&mem.Packet{Acc: &mem.Access{ID: uint64(i*100 + sent[i])}, Src: s, Dst: 4, Flits: 2}) {
					sent[i]++
				}
			}
		}
		m.Tick(c)
		if len(sinks[4].got) == per*len(srcs) {
			break
		}
	}
	if len(sinks[4].got) != per*len(srcs) {
		t.Fatalf("delivered %d of %d", len(sinks[4].got), per*len(srcs))
	}
	counts := map[int]int{}
	for _, p := range sinks[4].got {
		counts[int(p.Acc.ID)/100]++
	}
	for i := range srcs {
		if counts[i] != per {
			t.Fatalf("flow %d delivered %d of %d", i, counts[i], per)
		}
	}
}

// The mesh's books balance through injection, publication, hops, grants and
// credit returns, and after the first, a passing audit of the mesh or of the
// crossbar allocates nothing. A forged node credit fails the audit by the rule both
// networks share, and a forged held count by the mesh's own.
func TestMeshConservationAudit(t *testing.T) {
	m, _ := newMesh(3, 3)
	for c := sim.Cycle(0); c < 60; c++ {
		for n := 0; n < 9; n += 2 {
			m.Inject(pkt(n, (n+int(c))%9, 1+n%3))
		}
		if v := m.CheckInvariants(); len(v) > 0 {
			t.Fatalf("cycle %d, before the tick: %v", c, v)
		}
		m.Tick(c)
		if v := m.CheckInvariants(); len(v) > 0 {
			t.Fatalf("cycle %d: %v", c, v)
		}
	}
	if m.held == 0 {
		t.Fatal("the mesh never held a packet: the audit saw nothing")
	}
	x, _ := newXbar(3, 2)
	x.Inject(pkt(1, 0, 1))
	if a := testing.AllocsPerRun(20, func() { m.CheckInvariants(); x.CheckInvariants() }); a != 0 {
		t.Errorf("a passing audit allocates %v times", a)
	}
	m.credit[4]++
	v := m.CheckInvariants()
	if len(v) != 1 || v[0].Rule != "ingress-credit" || v[0].Warn {
		t.Fatalf("forged credit: audit reported %+v, want one fatal ingress-credit", v)
	}
	m.credit[4]--
	m.held++
	v = m.CheckInvariants()
	if len(v) != 1 || v[0].Rule != "mesh-held" || v[0].Warn {
		t.Fatalf("forged held count: audit reported %+v, want one fatal mesh-held", v)
	}
}

package noc

import (
	"testing"
	"testing/quick"

	"dcl1sim/internal/mem"
	"dcl1sim/internal/sim"
)

func pkt(src, dst, flits int) *mem.Packet {
	return &mem.Packet{Acc: &mem.Access{}, Src: src, Dst: dst, Flits: flits}
}

// sink collects delivered packets.
type sink struct {
	got   []*mem.Packet
	limit int // 0 = unlimited
}

func (s *sink) Deliver(p *mem.Packet) bool {
	if s.limit > 0 && len(s.got) >= s.limit {
		return false
	}
	s.got = append(s.got, p)
	return true
}

func newXbar(ins, outs int) (*Crossbar, []*sink) {
	x := New(Params{Name: "t", Ins: ins, Outs: outs, RouterLat: 1})
	sinks := make([]*sink, outs)
	for o := 0; o < outs; o++ {
		sinks[o] = &sink{}
		x.SetEndpoint(o, sinks[o])
	}
	return x, sinks
}

func runTicks(x *Crossbar, from sim.Cycle, n int) sim.Cycle {
	for i := 0; i < n; i++ {
		x.Tick(from + sim.Cycle(i))
	}
	return from + sim.Cycle(n)
}

func TestCrossbarDelivers(t *testing.T) {
	x, sinks := newXbar(2, 2)
	if !x.Inject(pkt(0, 1, 1)) {
		t.Fatal("inject rejected")
	}
	runTicks(x, 0, 10)
	if len(sinks[1].got) != 1 {
		t.Fatalf("delivered = %d", len(sinks[1].got))
	}
	if len(sinks[0].got) != 0 {
		t.Fatal("misrouted packet")
	}
}

func TestCrossbarSerializationLatency(t *testing.T) {
	// A 5-flit packet (128B line + header on 32B links) must take >= 5 cycles
	// of link occupancy plus the router latency before delivery.
	x, sinks := newXbar(1, 1)
	x.Inject(pkt(0, 0, 5))
	delivered := -1
	for c := 0; c < 20; c++ {
		x.Tick(sim.Cycle(c))
		if len(sinks[0].got) == 1 && delivered < 0 {
			delivered = c
		}
	}
	if delivered < 0 {
		t.Fatal("never delivered")
	}
	// Granted at cycle 0, in flight until 0+5+1, delivered on the tick after.
	if delivered < 6 {
		t.Fatalf("5-flit packet delivered after %d cycles; too fast", delivered)
	}
}

func TestCrossbarOutputSerialization(t *testing.T) {
	// Two packets to the same output must serialize: ~F cycles apart.
	x, sinks := newXbar(2, 1)
	x.Inject(pkt(0, 0, 4))
	x.Inject(pkt(1, 0, 4))
	runTicks(x, 0, 3)
	if len(sinks[0].got) != 0 {
		t.Fatal("nothing should have arrived yet")
	}
	runTicks(x, 3, 30)
	if len(sinks[0].got) != 2 {
		t.Fatalf("delivered = %d, want 2", len(sinks[0].got))
	}
	if x.Stat.FlitsMoved != 8 {
		t.Fatalf("FlitsMoved = %d", x.Stat.FlitsMoved)
	}
}

func TestCrossbarParallelTransfers(t *testing.T) {
	// Disjoint (in,out) pairs transfer concurrently: 2 one-flit packets on a
	// 2x2 switch finish as fast as one.
	x, sinks := newXbar(2, 2)
	x.Inject(pkt(0, 0, 1))
	x.Inject(pkt(1, 1, 1))
	runTicks(x, 0, 4)
	if len(sinks[0].got) != 1 || len(sinks[1].got) != 1 {
		t.Fatalf("parallel delivery failed: %d %d", len(sinks[0].got), len(sinks[1].got))
	}
}

func TestCrossbarInputConflict(t *testing.T) {
	// One input cannot feed two outputs simultaneously.
	x, _ := newXbar(1, 2)
	x.Inject(pkt(0, 0, 4))
	x.Inject(pkt(0, 1, 4))
	x.Tick(0)
	// After the first grant the input is busy; only one transfer may start.
	if x.Stat.PacketsMoved != 1 {
		t.Fatalf("granted %d packets from one input in one cycle", x.Stat.PacketsMoved)
	}
}

func TestCrossbarRoundRobinFairness(t *testing.T) {
	// Saturate one output from 4 inputs; grants must rotate.
	x, s := newXbar(4, 1)
	total := 40
	injected := 0
	perIn := make([]int, 4)
	for c := sim.Cycle(0); len(s[0].got) < total && c < 2000; c++ {
		for in := 0; in < 4; in++ {
			if injected < total+8 && x.Inject(pkt(in, 0, 1)) {
				injected++
			}
		}
		x.Tick(c)
	}
	if len(s[0].got) < total {
		t.Fatalf("only %d delivered", len(s[0].got))
	}
	for _, p := range s[0].got {
		perIn[p.Src]++
	}
	for in, n := range perIn {
		if n < total/4-3 || n > total/4+3 {
			t.Fatalf("unfair arbitration: input %d got %d of %d grants (%v)", in, n, total, perIn)
		}
	}
}

func TestCrossbarVOQAvoidsHOLBlocking(t *testing.T) {
	// Input 0 has a packet for a blocked output 0 and one for free output 1.
	// VOQs must let the second proceed once the input link frees.
	x, sinks := newXbar(1, 2)
	sinks[0].limit = 0
	// Block output 0 with a huge packet from input 0 first? Instead attach a
	// rejecting endpoint on output 0 so its stage backs up.
	rej := &sink{limit: 0}
	x.SetEndpoint(0, EndpointFunc(func(p *mem.Packet) bool { return false }))
	_ = rej
	for i := 0; i < 8; i++ {
		x.Inject(pkt(0, 0, 1))
	}
	x.Inject(pkt(0, 1, 1))
	runTicks(x, 0, 40)
	if len(sinks[1].got) != 1 {
		t.Fatalf("VOQ failed: packet to free output delivered %d times", len(sinks[1].got))
	}
}

func TestCrossbarBackpressureToInject(t *testing.T) {
	x, _ := newXbar(1, 1)
	x.SetEndpoint(0, EndpointFunc(func(p *mem.Packet) bool { return false }))
	accepted := 0
	for i := 0; i < 100; i++ {
		if x.Inject(pkt(0, 0, 1)) {
			accepted++
		}
		x.Tick(sim.Cycle(i))
	}
	// VOQ(4) + staged(4) + in flight bounded: far fewer than 100 accepted.
	if accepted > 20 {
		t.Fatalf("no backpressure: accepted %d", accepted)
	}
	if x.Stat.StallNoRoom == 0 {
		t.Fatal("stall counter never incremented")
	}
}

func TestCrossbarUtilizationStats(t *testing.T) {
	x, _ := newXbar(2, 2)
	// 10 packets x 4 flits from input 0 to output 1, one at a time.
	done := 0
	for c := sim.Cycle(0); done < 10 && c < 500; c++ {
		if done+x.Pending() < 10 {
			x.Inject(pkt(0, 1, 4))
		}
		x.Tick(c)
		done = int(x.Stat.PacketsMoved)
	}
	if x.Stat.OutFlits[1] != 40 {
		t.Fatalf("OutFlits[1] = %d", x.Stat.OutFlits[1])
	}
	if x.Stat.OutFlits[0] != 0 {
		t.Fatal("unused port shows traffic")
	}
	u := x.Stat.OutUtilization(1)
	if u <= 0 || u > 1 {
		t.Fatalf("utilization out of range: %f", u)
	}
	if x.Stat.MaxOutUtilization() != u {
		t.Fatal("MaxOutUtilization mismatch")
	}
}

func TestCrossbarRejectsBadPorts(t *testing.T) {
	x, _ := newXbar(2, 2)
	for _, bad := range []*mem.Packet{pkt(-1, 0, 1), pkt(0, 5, 1), pkt(0, 0, 0)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("inject %+v did not panic", bad)
				}
			}()
			x.Inject(bad)
		}()
	}
}

// Property: conservation — every injected packet is eventually delivered
// exactly once when endpoints always accept, for arbitrary traffic patterns.
func TestCrossbarConservationProperty(t *testing.T) {
	f := func(routes []uint16) bool {
		if len(routes) > 64 {
			routes = routes[:64]
		}
		x, sinks := newXbar(4, 3)
		want := 0
		i := 0
		for c := sim.Cycle(0); ; c++ {
			if c > 5000 {
				return false
			}
			if i < len(routes) {
				r := routes[i]
				src := int(r % 4)
				dst := int((r / 4) % 3)
				flits := int((r/16)%5) + 1
				if x.Inject(&mem.Packet{Acc: &mem.Access{ID: uint64(i)}, Src: src, Dst: dst, Flits: flits}) {
					want++
					i++
				}
			}
			x.Tick(c)
			got := 0
			for _, s := range sinks {
				got += len(s.got)
			}
			if i == len(routes) && got == want && x.Pending() == 0 {
				break
			}
		}
		// No duplicates.
		seen := map[uint64]bool{}
		for _, s := range sinks {
			for _, p := range s.got {
				if seen[p.Acc.ID] {
					return false
				}
				seen[p.Acc.ID] = true
			}
		}
		return len(seen) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: per-input FIFO order toward the same output is preserved.
func TestCrossbarPerFlowOrderProperty(t *testing.T) {
	f := func(n uint8) bool {
		count := int(n%20) + 2
		x, sinks := newXbar(2, 2)
		next := uint64(0)
		sent := 0
		for c := sim.Cycle(0); len(sinks[1].got) < count && c < 5000; c++ {
			if sent < count && x.Inject(&mem.Packet{Acc: &mem.Access{ID: next}, Src: 0, Dst: 1, Flits: 2}) {
				next++
				sent++
			}
			x.Tick(c)
		}
		if len(sinks[1].got) != count {
			return false
		}
		for i, p := range sinks[1].got {
			if p.Acc.ID != uint64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// The VOQ books balance through injection, publication, grants and credit
// returns, and a corrupted credit fails the audit by its rule name. A credit
// returned early (the corruption's other direction) lets a VOQ overflow at
// publication, which panics instead of being skipped.
func TestCrossbarConservationAudit(t *testing.T) {
	x, _ := newXbar(3, 2)
	for c := sim.Cycle(0); c < 40; c++ {
		for in := 0; in < 3; in++ {
			x.Inject(pkt(in, int(c)%2, 1+in))
		}
		if v := x.checkVOQs(); len(v) > 0 {
			t.Fatalf("cycle %d, before the tick: %v", c, v)
		}
		x.Tick(c)
		if v := x.CheckInvariants(); len(v) > 0 {
			t.Fatalf("cycle %d: %v", c, v)
		}
	}
	if x.voqCount == 0 {
		t.Fatal("no VOQ ever held a packet: the audit saw nothing")
	}
	k := x.pair(1, 0)
	x.credit[k]++
	v := x.CheckInvariants()
	if len(v) != 1 || v[0].Rule != "ingress-credit" || v[0].Warn {
		t.Fatalf("corrupted credit: audit reported %+v, want one fatal ingress-credit", v)
	}
	x.credit[k] = -1 // a credit returned that was never taken: VOQDepth+1 admitted
	for x.Inject(pkt(1, 0, 1)) {
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a VOQ overflowing at publication did not panic")
		}
	}()
	x.Tick(40)
}

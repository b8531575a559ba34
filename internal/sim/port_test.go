package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// TestPortImmediateMode: an unattached port is a plain queue — pushes are
// visible to Pop/Len at once, so standalone component tests keep working.
func TestPortImmediateMode(t *testing.T) {
	p := NewPort[int](2)
	if !p.Push(1) || !p.Push(2) {
		t.Fatal("pushes into empty port refused")
	}
	if p.Push(3) {
		t.Error("push into full immediate port accepted")
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d, want 2", p.Len())
	}
	if v, ok := p.Pop(); !ok || v != 1 {
		t.Errorf("Pop = %d,%v, want 1,true", v, ok)
	}
}

// TestPortTwoPhaseVisibility: once attached, a push stages until the clock's
// edge barrier; the consumer sees it only after commit.
func TestPortTwoPhaseVisibility(t *testing.T) {
	e := NewEngine()
	c := e.NewClock("c", 1000)
	p := NewPort[int](4)
	p.Attach(c)
	if !p.Push(7) {
		t.Fatal("staged push refused")
	}
	if p.Len() != 0 {
		t.Errorf("Len before commit = %d, want 0 (value staged)", p.Len())
	}
	if p.StagedLen() != 1 {
		t.Errorf("StagedLen = %d, want 1", p.StagedLen())
	}
	c.Register(TickFunc(func(Cycle) {}))
	e.RunUntil(c, 1) // one edge: commit runs at its barrier
	if p.Len() != 1 {
		t.Errorf("Len after edge = %d, want 1", p.Len())
	}
	if v, ok := p.Pop(); !ok || v != 7 {
		t.Errorf("Pop = %d,%v, want 7,true", v, ok)
	}
}

// TestPortTwoPhaseCapacity: capacity gates admission against the committed
// snapshot plus already-staged values, so a producer can never stage more
// than the queue can absorb at the barrier — the commit-overflow panic is
// unreachable through the public API.
func TestPortTwoPhaseCapacity(t *testing.T) {
	e := NewEngine()
	c := e.NewClock("c", 1000)
	p := NewPort[int](2)
	p.Attach(c)
	if !p.Push(1) || !p.Push(2) {
		t.Fatal("staged pushes refused below capacity")
	}
	if p.Push(3) {
		t.Error("staged push beyond capacity accepted")
	}
	if !p.Full() {
		t.Error("Full = false with capacity worth of staged values")
	}
	if p.Space() != 0 {
		t.Errorf("Space = %d, want 0", p.Space())
	}
}

// TestPortDoubleAttachPanics pins the single-producer ownership contract's
// guard rail.
func TestPortDoubleAttachPanics(t *testing.T) {
	e := NewEngine()
	c := e.NewClock("c", 1000)
	p := NewPort[int](1)
	p.Attach(c)
	defer func() {
		if recover() == nil {
			t.Error("second Attach did not panic")
		}
	}()
	p.Attach(c)
}

// TestShardedEngineMatchesSerial runs a ring of components — each pops from
// its inbound port and pushes a transformed value to its outbound port — at
// several shard counts and demands identical final state. The ring makes
// every component both producer and consumer, so any commit-ordering or
// visibility bug shows up as a diverging sum.
func TestShardedEngineMatchesSerial(t *testing.T) {
	const nodes = 12
	run := func(shards int) []int {
		e := NewEngine()
		e.SetShards(shards)
		c := e.NewClock("c", 1000)
		ports := make([]*Port[int], nodes)
		for i := range ports {
			ports[i] = NewPort[int](4)
			ports[i].Attach(c)
		}
		state := make([]int, nodes)
		for i := 0; i < nodes; i++ {
			i := i
			in, out := ports[i], ports[(i+1)%nodes]
			c.Register(TickFunc(func(cy Cycle) {
				if v, ok := in.Pop(); ok {
					state[i] += v
					out.Push(v + i)
				}
				if cy%Cycle(i+1) == 0 {
					out.Push(i)
				}
			}))
		}
		e.RunUntil(c, 500)
		return state
	}
	want := run(1)
	for _, shards := range []int{2, 3, 4, 8} {
		got := run(shards)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: state[%d] = %d, want %d (serial)\ngot:  %v\nwant: %v",
					shards, i, got[i], want[i], got, want)
			}
		}
	}
}

// TestShardedMultiClockMatchesSerial crosses two clock domains through
// two-phase ports, checking that the per-edge commit schedule (every
// processed edge, including unproductive ones) is shard-independent.
func TestShardedMultiClockMatchesSerial(t *testing.T) {
	run := func(shards int) string {
		e := NewEngine()
		e.SetShards(shards)
		fastClk := e.NewClock("fast", 1400)
		slowClk := e.NewClock("slow", 924)
		fwd := NewPort[int](3)
		fwd.Attach(fastClk)
		back := NewPort[int](3)
		back.Attach(slowClk)
		var log string
		seq := 0
		for i := 0; i < 8; i++ {
			i := i
			fastClk.Register(TickFunc(func(cy Cycle) {
				if i == 0 {
					seq++
					fwd.Push(seq)
				}
				if i == 7 {
					if v, ok := back.Pop(); ok {
						log += fmt.Sprintf("b%d,", v)
					}
				}
			}))
		}
		for i := 0; i < 8; i++ {
			i := i
			slowClk.Register(TickFunc(func(Cycle) {
				if i == 3 {
					if v, ok := fwd.Pop(); ok {
						log += fmt.Sprintf("f%d,", v)
						back.Push(v * 10)
					}
				}
			}))
		}
		e.RunUntil(fastClk, 300)
		return log
	}
	want := run(1)
	if want == "" {
		t.Fatal("serial run produced no traffic")
	}
	for _, shards := range []int{2, 4, 8} {
		if got := run(shards); got != want {
			t.Errorf("shards=%d event log diverged from serial", shards)
		}
	}
}

// A port whose producer has gone quiet is clean at every barrier — nothing
// staged — yet its consumer, on another clock, may have popped since the last
// one. The barrier's header scan must still refresh the producer-side
// snapshot of such a port, on the same edge serial and sharded: the producer
// sees the freed slot at its first edge after the first barrier that follows
// the pop, not earlier and not never.
func TestPortCleanCommitRefreshesSnapshot(t *testing.T) {
	run := func(shards int) []int {
		e := NewEngine()
		e.SetShards(shards)
		prod := e.NewClock("prod", 500)  // edge k at 2k ns; wins ties (created first)
		cons := e.NewClock("cons", 1000) // edge j at j ns
		p := NewPort[int](2)
		p.Attach(prod)
		var space []int
		for i := 0; i < 8; i++ { // 8 components, so 2 and 4 shards dispatch
			i := i
			prod.Register(TickFunc(func(cy Cycle) {
				if i != 5 {
					return
				}
				space = append(space, p.Space())
				if cy < 2 {
					p.Push(int(cy)) // fill the port, then never push again
				}
			}))
			cons.Register(TickFunc(func(cy Cycle) {
				if i == 2 && (cy == 7 || cy == 12) {
					p.Pop()
				}
			}))
		}
		e.RunUntil(prod, 10)
		if h, n := p.stagedCounts(); h != 0 || n != 0 {
			t.Fatalf("shards=%d: %d/%d values left staged", shards, h, n)
		}
		return space
	}
	// Pops at 7 ns and 12 ns. The barrier ending prod edge 3 (6 ns) precedes
	// the first pop and the one ending edge 4 (8 ns) follows it, so edge 5 is
	// the first to see a free slot. At 12 ns prod edge 6 and its barrier win
	// the tie and run before the pop; edge 7's barrier publishes it to edge 8.
	want := []int{2, 1, 0, 0, 0, 1, 1, 1, 2, 2}
	for _, shards := range []int{1, 2, 4} {
		if got := run(shards); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: producer saw Space() = %v per edge, want %v", shards, got, want)
		}
	}
}

// CheckQueue audits the commit header the barrier scans against the staged
// values it stands for.
func TestPortHeaderAudit(t *testing.T) {
	e := NewEngine()
	p := NewPort[int](4)
	p.Attach(e.NewClock("c", 1000))
	p.Push(1)
	if v := CheckQueue("comp", "Out", p); len(v) != 0 {
		t.Fatalf("healthy port: %v", v)
	}
	p.hdr.nStaged = 0 // the barrier would now never publish the staged value
	v := CheckQueue("comp", "Out", p)
	if len(v) != 1 || v[0].Rule != "port-header" {
		t.Fatalf("violations = %v, want one port-header", v)
	}
}

package sim

import (
	"fmt"
	"math/rand"
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
// edge barrier; the consumer sees it only after commit. The clock holds the
// value, staged or committed, until it is popped.
func TestPortTwoPhaseVisibility(t *testing.T) {
	e := NewEngine()
	c := e.NewClock("c", 1000)
	p := NewPort[int](4)
	p.Attach(c)
	if c.Holding() {
		t.Error("clock of an empty port holding")
	}
	if !p.Push(7) {
		t.Fatal("staged push refused")
	}
	if p.Len() != 0 {
		t.Errorf("Len before commit = %d, want 0 (value staged)", p.Len())
	}
	if p.hdr.nStaged != 1 || !c.Holding() {
		t.Errorf("staged = %d, clock holding %t; want 1, true", p.hdr.nStaged, c.Holding())
	}
	c.Register(TickFunc(func(Cycle) {}))
	e.RunUntil(c, 1) // one edge: commit runs at its barrier
	if p.Len() != 1 || !c.Holding() {
		t.Errorf("Len after edge = %d, clock holding %t; want 1, true", p.Len(), c.Holding())
	}
	if v, ok := p.Pop(); !ok || v != 7 {
		t.Errorf("Pop = %d,%v, want 7,true", v, ok)
	}
	if c.Holding() {
		t.Error("clock holding after the port was drained")
	}
}

// TestPortTwoPhaseCapacity: capacity gates admission against the committed
// snapshot plus already-staged values, so a producer can never stage more
// than the queue can absorb at the barrier: every staged value has a free
// slot in the ring behind the committed ones.
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

// registrationOrders returns the permutations of 0..n-1 the order-independence
// scenes register their components in: forward, reversed, and one fixed-seed
// shuffle.
func registrationOrders(n int) map[string][]int {
	fwd, rev := make([]int, n), make([]int, n)
	for i := range fwd {
		fwd[i], rev[i] = i, n-1-i
	}
	return map[string][]int{"forward": fwd, "reversed": rev, "shuffled": rand.New(rand.NewSource(7)).Perm(n)}
}

// TestPortOrderIndependence pins the port contract's actual promise: the
// order components tick in within an edge cannot influence results. Each
// scene is built three times, with the same components registered in a
// different order, and must leave identical state behind. Were a Push visible
// before the barrier, a consumer registered after its producer would see the
// value an edge earlier than one registered before it, and the runs diverge.
func TestPortOrderIndependence(t *testing.T) {
	// A ring of components — each pops from its inbound port and pushes a
	// transformed value to its outbound port. The ring makes every component
	// both producer and consumer, so any commit-ordering or visibility bug
	// shows up as a diverging sum.
	t.Run("ring", func(t *testing.T) {
		const nodes = 12
		run := func(order []int) []int {
			e := NewEngine()
			c := e.NewClock("c", 1000)
			ports := make([]*Port[int], nodes)
			for i := range ports {
				ports[i] = NewPort[int](4)
				ports[i].Attach(c)
			}
			state := make([]int, nodes)
			for _, i := range order {
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
		orders := registrationOrders(nodes)
		want := run(orders["forward"])
		if reflect.DeepEqual(want, make([]int, nodes)) {
			t.Fatal("forward run moved nothing")
		}
		for name, order := range orders {
			if got := run(order); !reflect.DeepEqual(got, want) {
				t.Errorf("%s registration: state %v, want %v (forward)", name, got, want)
			}
		}
	})

	// Two clock domains crossed through two-phase ports in both directions:
	// the per-edge commit schedule (every processed edge, including
	// unproductive ones) and the snapshot-gated admission of the fast
	// producer into the slow consumer's full port are order-free too.
	t.Run("two-clock", func(t *testing.T) {
		const n = 8
		run := func(order []int) [3]string {
			e := NewEngine()
			fastClk := e.NewClock("fast", 1400)
			slowClk := e.NewClock("slow", 924)
			fwd := NewPort[int](3)
			fwd.Attach(fastClk)
			mid := NewPort[int](3)
			mid.Attach(slowClk)
			back := NewPort[int](3)
			back.Attach(slowClk)
			var log [3]string // one per logging component: each sees only its own ports
			seq := 0
			for _, i := range order {
				i := i
				fastClk.Register(TickFunc(func(cy Cycle) {
					if i == 0 {
						seq++
						fwd.Push(seq)
					}
					if i == 7 {
						if v, ok := back.Pop(); ok {
							log[0] += fmt.Sprintf("b%d@%d,", v, cy)
						}
					}
				}))
			}
			for _, i := range order {
				i := i
				slowClk.Register(TickFunc(func(cy Cycle) {
					if i == 3 {
						if v, ok := fwd.Pop(); ok {
							log[1] += fmt.Sprintf("f%d@%d,", v, cy)
							mid.Push(v * 10)
						}
					}
					if i == 5 { // same clock as its producer: sees mid one edge late in any order
						if v, ok := mid.Pop(); ok {
							log[2] += fmt.Sprintf("m%d@%d,", v, cy)
							back.Push(v + 1)
						}
					}
				}))
			}
			e.RunUntil(fastClk, 300)
			return log
		}
		orders := registrationOrders(n)
		want := run(orders["forward"])
		if want[0] == "" {
			t.Fatal("forward run brought nothing back to the fast clock")
		}
		for name, order := range orders {
			if got := run(order); got != want {
				t.Errorf("%s registration: event logs diverged from forward", name)
			}
		}
	})
}

// A port whose producer has gone quiet is clean at every barrier — nothing
// staged — yet its consumer, on another clock, may have popped since the last
// one. The pop must still get the producer-side snapshot of such a port
// refreshed at the producer clock's next barrier: the producer sees the freed
// slot at its first edge after the first barrier that follows the pop, not
// earlier and not never.
func TestPortCleanCommitRefreshesSnapshot(t *testing.T) {
	e := NewEngine()
	prod := e.NewClock("prod", 500)  // edge k at 2k ns; wins ties (created first)
	cons := e.NewClock("cons", 1000) // edge j at j ns
	p := NewPort[int](2)
	p.Attach(prod)
	var space []int
	prod.Register(TickFunc(func(cy Cycle) {
		space = append(space, p.Space())
		if cy < 2 {
			p.Push(int(cy)) // fill the port, then never push again
		}
	}))
	cons.Register(TickFunc(func(cy Cycle) {
		if cy == 7 || cy == 12 {
			p.Pop()
		}
	}))
	e.RunUntil(prod, 10)
	if p.hdr.nStaged != 0 {
		t.Fatalf("%d values left staged", p.hdr.nStaged)
	}
	// Pops at 7 ns and 12 ns. The barrier ending prod edge 3 (6 ns) precedes
	// the first pop and the one ending edge 4 (8 ns) follows it, so edge 5 is
	// the first to see a free slot. At 12 ns prod edge 6 and its barrier win
	// the tie and run before the pop; edge 7's barrier publishes it to edge 8.
	want := []int{2, 1, 0, 0, 0, 1, 1, 1, 2, 2}
	if !reflect.DeepEqual(space, want) {
		t.Errorf("producer saw Space() = %v per edge, want %v", space, want)
	}
}

// A consumer that removes out of order (RemoveAt) from an attached port while
// its producer has values staged behind the committed ones, on the same edge:
// the staged values sit in the ring right after the committed tail, so the
// removal has to shift them down with it. Before the barrier the consumer
// sees only the committed values, in order; after it the staged ones follow
// in push order. The ring of capacity 4 wraps on the last edge.
func TestPortRemoveAtShiftsStagedTail(t *testing.T) {
	e := NewEngine()
	c := e.NewClock("c", 1000)
	p := NewPort[int](4)
	p.Attach(c)
	type edge struct {
		push    []int
		pop     bool // the consumer pops once before removing
		remove  int  // index to RemoveAt; -1: none
		removed int  // the value it must return
		before  []int
		after   []int
	}
	script := []edge{
		{push: []int{1, 2, 3}, remove: -1, before: []int{}, after: []int{}},
		{push: []int{4}, remove: 1, removed: 2, before: []int{1, 2, 3}, after: []int{1, 3}},
		{push: []int{5}, pop: true, remove: 1, removed: 4, before: []int{1, 3, 4}, after: []int{3}},
		{push: []int{6, 7}, remove: 0, removed: 3, before: []int{3, 5}, after: []int{5}},
	}
	view := func() []int {
		v := []int{}
		for i := 0; i < p.Len(); i++ {
			v = append(v, p.At(i))
		}
		if h, ok := p.Peek(); ok != (len(v) > 0) || ok && h != v[0] {
			t.Errorf("Peek = %d,%v with committed %v", h, ok, v)
		}
		return v
	}
	c.Register(TickFunc(func(cy Cycle) { // producer, ticks first
		for _, v := range script[cy].push {
			if !p.Push(v) {
				t.Fatalf("edge %d: push %d refused", cy, v)
			}
		}
	}))
	c.Register(TickFunc(func(cy Cycle) { // consumer, after the pushes
		s := script[cy]
		if got := view(); !reflect.DeepEqual(got, s.before) {
			t.Errorf("edge %d: consumer sees %v before removing, want %v", cy, got, s.before)
		}
		if s.pop {
			p.Pop()
		}
		if s.remove >= 0 {
			if got := p.RemoveAt(s.remove); got != s.removed {
				t.Errorf("edge %d: RemoveAt(%d) = %d, want %d", cy, s.remove, got, s.removed)
			}
		}
		if got := view(); !reflect.DeepEqual(got, s.after) {
			t.Errorf("edge %d: consumer sees %v after removing, want %v", cy, got, s.after)
		}
	}))
	e.RunUntil(c, Cycle(len(script)))
	if got, want := view(), []int{5, 6, 7}; !reflect.DeepEqual(got, want) {
		t.Errorf("after the last barrier the port holds %v, want %v", got, want)
	}
	if v := CheckQueue("comp", "Out", p); len(v) != 0 {
		t.Errorf("CheckQueue: %v", v)
	}
}

package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// stuffer is the test producer: it has left values to push into out, rate a
// tick, and work exactly while it has values and something to push them into:
// what bounds it is out's capacity. With memo set it does not ask before it
// pushes and does not ask again after a refusal: like a feed, it sleeps on the
// memory of its last attempt, so nothing but the wake can get it going. Every
// cycle counts once, ticked or skipped.
type stuffer struct {
	out  *Port[int]
	left int
	rate int
	memo bool

	refused bool // memo: the last push was refused

	next   int
	log    []string // "push<v>@<cycle>"
	cycles Cycle
	ticks  int
}

func (s *stuffer) blocked() bool {
	if s.memo {
		return s.refused && s.out.SpaceRef().Bound()
	}
	return s.out.Full()
}

func (s *stuffer) Tick(now Cycle) {
	s.ticks++
	s.cycles++
	s.refused = false
	for i := 0; i < s.rate && s.left > 0 && !s.blocked(); i++ {
		if !s.out.Push(s.next) {
			if !s.memo {
				panic("stuffer: push refused by a port that said it was not full")
			}
			s.refused = true
			break
		}
		s.log = append(s.log, fmt.Sprintf("push%d@%d", s.next, now))
		s.next++
		s.left--
	}
}

func (s *stuffer) NextWorkCycle(now Cycle) Cycle {
	if s.left == 0 || s.blocked() {
		return WakeNever
	}
	return now
}

func (s *stuffer) SkipIdle(now, k Cycle) { s.cycles += k }

func (s *stuffer) WakeSources() []PortRef { return []PortRef{s.out.SpaceRef()} }

// drainer removes values from in on the cycles listed: at[c] = {n, i} takes n
// values on cycle c, each by RemoveAt(i) (i = 0 is a plain Pop). It sleeps
// between them, so its clock's other edges tick nothing on its account.
type drainer struct {
	in  *Port[int]
	at  map[Cycle][2]int
	log []string // "take<v>@<cycle>"
}

func (d *drainer) Tick(now Cycle) {
	n, i := d.at[now][0], d.at[now][1]
	for ; n > 0 && d.in.Len() > i; n-- {
		var v int
		if i == 0 {
			v, _ = d.in.Pop()
		} else {
			v = d.in.RemoveAt(i)
		}
		d.log = append(d.log, fmt.Sprintf("take%d@%d", v, now))
	}
}

func (d *drainer) NextWorkCycle(now Cycle) Cycle {
	w := WakeNever
	for c := range d.at {
		if c >= now && c < w {
			w = c
		}
	}
	return w
}

func (d *drainer) WakeSources() []PortRef { return nil }

// twoClocks builds an engine with a producer and a consumer clock: the same
// one, or two with either creation (tie-break) order.
func twoClocks(e *Engine, same, consFirst bool) (prod, cons *Clock) {
	switch {
	case same:
		prod = e.NewClock("p", 1000)
		return prod, prod
	case consFirst:
		cons = e.NewClock("c", 500)
		return e.NewClock("p", 1000), cons
	default:
		prod = e.NewClock("p", 1000)
		return prod, e.NewClock("c", 500)
	}
}

// A producer refused by a full port leaves the active set, and the barrier
// after which the port accepts again puts it back for the very next edge of
// its clock — the edge an always-ticking producer would first have pushed on.
// The refusals here come every way they can: pops and RemoveAts, one at a
// time and in bursts, on the producer's clock and on a slower one in both tie
// orders — and, on cycle 13 of the same-clock runs, a
// port the producer's own rate-3 pushes fill on the edge the consumer pops it
// (two staged into two free slots, the third refused; the commit publishes
// two and frees one, so the occupancy snapshot rises and the verdict still
// flips: a producer sleeping on the memo of that refusal has only the wake to
// get it to cycle 14). The log of the legacy engine, where everything ticks
// on every edge, is the reference.
func TestWakeOnSpaceNextEdge(t *testing.T) {
	takes := map[Cycle][2]int{
		10: {1, 0}, 11: {1, 0}, 12: {2, 1}, 13: {1, 0}, // singles, two from the middle, one more
		60: {3, 0}, 61: {1, 0},
		300: {4, 0}, 301: {4, 0}, 302: {4, 0}, 5000: {4, 0}, 5001: {4, 0},
	}
	for _, v := range []struct {
		name            string
		same, consFirst bool
		memo            bool
	}{
		{"same-clock", true, false, false}, {"same-clock-memo", true, false, true},
		{"cross-clock", false, false, false}, {"cross-clock-memo", false, false, true},
		{"cross-clock-consumer-wins-ties", false, true, false},
	} {
		var want [][]string
		for _, fast := range []bool{false, true} {
			e := NewEngine()
			e.SetFastPath(fast)
			prod, cons := twoClocks(e, v.same, v.consFirst)
			port := NewPort[int](4)
			port.Attach(prod)
			s := &stuffer{out: port, left: 20, rate: 3, memo: v.memo}
			d := &drainer{in: port, at: takes}
			for i := 0; i < 16; i++ { // always-ticking company on both clocks
				prod.Register(TickFunc(func(Cycle) {}))
				cons.Register(TickFunc(func(Cycle) {}))
			}
			prod.Register(s)
			cons.Register(d)
			e.RunUntil(prod, 12_000)
			got := [][]string{s.log, d.log}
			if want == nil {
				want = got // legacy, serial
				if s.left != 0 {
					t.Fatalf("%s: the reference run left %d values unpushed", v.name, s.left)
				}
				if v.same && (s.log[6] != "push6@13" || s.log[7] != "push7@13" || s.log[8] != "push8@14") {
					t.Fatalf("%s: cycle 13 is not the partial push this test is about: %v", v.name, s.log)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s fast=%v:\n got %v\nwant %v", v.name, fast, got, want)
			}
			if s.cycles != prod.Now() {
				t.Errorf("%s fast=%v: producer counted %d cycles of %d", v.name, fast, s.cycles, prod.Now())
			}
			if fast && s.ticks > 3*len(takes) {
				t.Errorf("%s: producer ticked %d times around %d drains: it never left the active set", v.name, s.ticks, len(takes))
			}
		}
	}
}

// The wake a barrier raises must survive an edge that ticked nothing. The
// consumer, on the faster clock B, pops once; the producer's clock A then runs
// an edge on which every component sleeps, and it is that edge's barrier —
// A's, the port's — that sees the pop and wakes the producer. B's next edge
// ticks nothing either, so both clocks' latest edges are now empty: an engine
// that took two empty edges as its cue to skip ahead would miss A's next edge,
// the one the producer must push on.
// In either tie order of the pop against A's edge (the sleepers that tick on
// the edge before make the empty edge one of a populated clock), against the
// legacy engine's cycle.
func TestBarrierWakeAfterAnEmptyEdge(t *testing.T) {
	for _, v := range []struct {
		name      string
		consFirst bool
		emptyEdge Cycle // A's edge whose barrier sees the pop of B's edge 100 (100 ns)
	}{
		{"producer-clock-first", false, 51}, // A's edge 50 (100 ns) runs before the pop
		{"consumer-clock-first", true, 50},
	} {
		for _, fast := range []bool{false, true} {
			e := NewEngine()
			e.SetFastPath(fast)
			var a, b *Clock
			if v.consFirst {
				b = e.NewClock("b", 1000)
				a = e.NewClock("a", 500)
			} else {
				a = e.NewClock("a", 500)
				b = e.NewClock("b", 1000)
			}
			port := NewPort[int](2)
			port.Attach(a)
			s := &stuffer{out: port, left: 3, rate: 1}
			a.Register(s)
			for i := 0; i < 16; i++ {
				a.Register(&boundNapper{napper{name: "f", timers: []Cycle{v.emptyEdge - 1}}})
			}
			b.Register(&drainer{in: port, at: map[Cycle][2]int{100: {1, 0}}})
			e.RunUntil(a, 5_000)
			want := []string{"push0@0", "push1@1", fmt.Sprintf("push2@%d", v.emptyEdge+1)}
			if !reflect.DeepEqual(s.log, want) {
				t.Errorf("%s fast=%v: producer log %v, want %v", v.name, fast, s.log, want)
			}
			if s.cycles != a.Now() {
				t.Errorf("%s fast=%v: producer counted %d cycles of %d", v.name, fast, s.cycles, a.Now())
			}
		}
	}
}

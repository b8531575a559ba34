package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"dcl1sim/internal/health"
)

// napper is the test sleeper: it has work when its input port holds a value
// or its own timer is due, and counts a cycle per Tick and per skipped cycle,
// so at any settle point cycles must equal its clock's processed edges —
// what an engine calling SkipIdle on every skipped edge would leave.
type napper struct {
	name   string
	in     *Port[int] // nil = none
	timers []Cycle    // ascending own wake cycles still to come
	deaf   bool       // NextWorkCycle ignores in (every port wake is spurious)

	log    []string // work done: "<name>@<cycle>:<what>"
	cycles Cycle
	ticks  int
	polls  int
	skips  [][2]Cycle // SkipIdle calls, (now, n)
}

func (n *napper) Tick(now Cycle) {
	n.ticks++
	n.cycles++
	for n.in != nil && !n.deaf {
		v, ok := n.in.Pop()
		if !ok {
			break
		}
		n.log = append(n.log, fmt.Sprintf("%s@%d:pop%d", n.name, now, v))
	}
	for len(n.timers) > 0 && n.timers[0] <= now {
		n.log = append(n.log, fmt.Sprintf("%s@%d:timer%d", n.name, now, n.timers[0]))
		n.timers = n.timers[1:]
	}
}

func (n *napper) NextWorkCycle(now Cycle) Cycle {
	n.polls++
	if n.in != nil && !n.deaf && !n.in.Empty() {
		return now
	}
	if len(n.timers) == 0 {
		return WakeNever
	}
	return max(n.timers[0], now)
}

func (n *napper) SkipIdle(now, k Cycle) {
	n.cycles += k
	n.skips = append(n.skips, [2]Cycle{now, k})
}

// boundNapper declares its input port, so it may leave the active set.
type boundNapper struct{ napper }

func (n *boundNapper) WakeSources() []PortRef {
	if n.in == nil {
		return nil
	}
	return []PortRef{n.in.Ref()}
}

// pusher pushes v into out on each cycle listed in at.
type pusher struct {
	out *Port[int]
	at  map[Cycle]int
}

func (p *pusher) Tick(now Cycle) {
	if v, ok := p.at[now]; ok {
		p.out.Push(v)
	}
}

// A timer wake ticks on exactly the cycle the component reported: across
// long sleeps (the gaps are thousands of idle edges on two clocks)
// and across RunUntil slice boundaries that fall before, on and after the
// wake cycles.
func TestWakeTimerExactCycle(t *testing.T) {
	run := func(fast bool, stops []Cycle) ([]string, []WalkStats) {
		e := NewEngine()
		e.SetFastPath(fast)
		a := e.NewClock("a", 1000)
		b := e.NewClock("b", 700)
		na := &boundNapper{napper{name: "a", timers: []Cycle{5, 63, 64, 65, 1000, 1001, 50_000}}}
		nb := &boundNapper{napper{name: "b", timers: []Cycle{1, 699, 700, 34_000}}}
		a.Register(na)
		b.Register(nb)
		for _, s := range stops {
			e.RunUntil(a, s)
			if na.cycles != a.Now() || nb.cycles != b.Now() {
				t.Fatalf("fast=%v stop %d: cycles a=%d/%d b=%d/%d not settled", fast, s, na.cycles, a.Now(), nb.cycles, b.Now())
			}
		}
		return append(na.log, nb.log...), e.WalkStats()
	}
	stops := []Cycle{3, 5, 6, 700, 999, 1000, 1001, 49_999, 50_001, 60_000}
	want, _ := run(false, []Cycle{60_000})
	if len(want) != 11 {
		t.Fatalf("legacy run logged %d timer events, want 11: %v", len(want), want)
	}
	for _, ev := range want { // "a@5:timer5": the cycle ticked on is the cycle reported
		var name string
		var at, tm Cycle
		if _, err := fmt.Sscanf(ev, "%1s@%d:timer%d", &name, &at, &tm); err != nil || at != tm {
			t.Fatalf("legacy event %q: timer did not fire on its cycle", ev)
		}
	}
	for _, st := range [][]Cycle{{60_000}, stops} {
		got, ws := run(true, st)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("stops %v: fast events %v, want %v", st, got, want)
		}
		for _, w := range ws {
			// Woken components tick unasked and sleep on the next poll: a
			// handful of polls per timer, not one per edge. Each clock holds
			// one napper, so its walk's polls are that napper's (the napper's
			// own count would include the wakeaudit build's audit polls).
			if w.Polls > 4*11+2*int64(len(st)) {
				t.Errorf("stops %v: %s polled %d times over 60k cycles: the sleep is not being skipped", st, w.Clock, w.Polls)
			}
		}
	}
}

// A push committed at producer edge e wakes the consumer for its next edge:
// e+1 on the producer's own clock, the first edge after e's barrier on
// another clock (either tie-break order), among always-ticking filler.
func TestWakePortCommitNextEdge(t *testing.T) {
	pushes := map[Cycle]int{3: 30, 4: 40, 5: 50, 200: 2000, 9_000: 90_000}
	type variant struct {
		name            string
		prodMHz, conMHz int64
		sameClock       bool
		consFirst       bool
		want            []string
	}
	variants := []variant{
		{name: "same-clock", prodMHz: 1000, sameClock: true,
			want: []string{"c@4:pop30", "c@5:pop40", "c@6:pop50", "c@201:pop2000", "c@9001:pop90000"}},
		// Producer edge k at k ns, consumer edge j at 2j ns; the producer
		// clock wins ties, so edge 4's commit (4 ns) is seen by consumer edge
		// 2 (4 ns), together with edge 3's.
		{name: "cross-clock", prodMHz: 1000, conMHz: 500,
			want: []string{"c@2:pop30", "c@2:pop40", "c@3:pop50", "c@100:pop2000", "c@4500:pop90000"}},
		// Consumer clock created first: its edge at 4 ns runs before the
		// producer's, so the 4 ns push waits for consumer edge 3.
		{name: "cross-clock-consumer-wins-ties", prodMHz: 1000, conMHz: 500, consFirst: true,
			want: []string{"c@2:pop30", "c@3:pop40", "c@3:pop50", "c@101:pop2000", "c@4501:pop90000"}},
	}
	for _, v := range variants {
		for _, fast := range []bool{false, true} {
			e := NewEngine()
			e.SetFastPath(fast)
			var prod, cons *Clock
			switch {
			case v.sameClock:
				prod = e.NewClock("p", v.prodMHz)
				cons = prod
			case v.consFirst:
				cons = e.NewClock("c", v.conMHz)
				prod = e.NewClock("p", v.prodMHz)
			default:
				prod = e.NewClock("p", v.prodMHz)
				cons = e.NewClock("c", v.conMHz)
			}
			port := NewPort[int](8)
			port.Attach(prod)
			c := &boundNapper{napper{name: "c", in: port}}
			for i := 0; i < 16; i++ {
				prod.Register(TickFunc(func(Cycle) {}))
				cons.Register(TickFunc(func(Cycle) {}))
			}
			prod.Register(&pusher{out: port, at: pushes})
			cons.Register(c)
			e.RunUntil(prod, 10_000)
			if !reflect.DeepEqual(c.log, v.want) {
				t.Errorf("%s fast=%v: consumer saw %v, want %v", v.name, fast, c.log, v.want)
			}
			if c.cycles != cons.Now() {
				t.Errorf("%s fast=%v: consumer counted %d cycles of %d", v.name, fast, c.cycles, cons.Now())
			}
			if fast && c.ticks > 3*len(pushes) {
				t.Errorf("%s: consumer ticked %d times for %d pushes: it never left the active set", v.name, c.ticks, len(pushes))
			}
		}
	}
}

// scene is a small two-clock machine of nappers and pushers, built the same
// way every time so differently-driven engines can be compared.
type scene struct {
	e       *Engine
	a, b    *Clock
	nappers []*napper
}

// logs returns every napper's work log, in registration order.
func (s *scene) logs() (out [][]string) {
	for _, n := range s.nappers {
		out = append(out, n.log)
	}
	return out
}

func newScene() *scene {
	s := &scene{e: NewEngine()}
	s.a = s.e.NewClock("a", 1400)
	s.b = s.e.NewClock("b", 924)
	ab, ba := NewPort[int](64), NewPort[int](64)
	ab.Attach(s.a)
	ba.Attach(s.b)
	onA := map[Cycle]int{}
	onB := map[Cycle]int{}
	for k := Cycle(1); k < 40; k++ {
		onA[k*k*7%5000+k] = int(k) // bursts early, long gaps later
		onB[k*311%3000] = int(100 + k)
	}
	mk := func(name string, in *Port[int], timers ...Cycle) *boundNapper {
		n := &boundNapper{napper{name: name, in: in, timers: timers}}
		s.nappers = append(s.nappers, &n.napper)
		return n
	}
	s.a.Register(&pusher{out: ab, at: onA})
	s.a.Register(mk("a-cons", ba, 17, 4000))
	s.a.Register(mk("a-timer", nil, 1, 2, 3, 500, 501, 6999))
	plain := &napper{name: "a-unbound", timers: []Cycle{250, 5100}}
	s.nappers = append(s.nappers, plain)
	s.a.Register(plain) // a Sleeper with no WakeSources
	s.b.Register(&pusher{out: ba, at: onB})
	s.b.Register(mk("b-cons", ab, 3300))
	s.b.Register(mk("b-idle", nil))
	for i := 0; i < 12; i++ { // timer-only sleepers, staggered across the wheel and the far set
		s.a.Register(mk(fmt.Sprintf("a-fill%d", i), nil, Cycle(10+i), Cycle(3000+64*i)))
		s.b.Register(mk(fmt.Sprintf("b-fill%d", i), nil, Cycle(20+i)))
	}
	return s
}

// checkSettled asserts the eager engine's invariant: every component has
// been ticked or compensated for every processed edge of its clock.
func (s *scene) checkSettled(t *testing.T, when string) {
	t.Helper()
	for _, n := range s.nappers {
		clk := s.a
		if n.name[0] == 'b' {
			clk = s.b
		}
		if n.cycles != clk.Now() {
			t.Fatalf("%s: %s counts %d cycles, clock %s has processed %d", when, n.name, n.cycles, clk.name, clk.Now())
		}
	}
}

// Lazy SkipIdle totals equal the eager engine's at every settle point: when
// RunUntil returns, and mid-run from a barrier task that settles first — what
// a metrics sample does through Collector.OnSample.
func TestLazySkipIdleSettlesToEagerTotals(t *testing.T) {
	s := newScene()
	samples := 0
	s.a.OnBarrier(func() {
		if s.a.Now()%97 != 0 {
			return
		}
		samples++
		s.e.Settle()
		s.checkSettled(t, fmt.Sprintf("sample at a=%d", s.a.Now()))
	})
	for _, stop := range []Cycle{1, 50, 51, 2500, 7000} {
		s.e.RunUntil(s.a, stop)
		s.checkSettled(t, fmt.Sprintf("RunUntil(%d)", stop))
	}
	if samples != 7000/97 {
		t.Fatalf("%d mid-run samples, want %d", samples, 7000/97)
	}
	skipped := false
	for _, n := range s.nappers {
		skipped = skipped || len(n.skips) > 0
	}
	if !skipped {
		t.Fatal("nothing was ever skipped; the test exercised no laziness")
	}
}

// Full-tick edges interleaved with fast edges leave the counters and the
// work log an all-fast and an all-legacy run leave.
func TestLegacyTickInterleavedWithFastEdges(t *testing.T) {
	final := func(drive func(s *scene)) ([][]string, []Cycle) {
		s := newScene()
		drive(s)
		s.checkSettled(t, "end of run")
		var cycles []Cycle
		for _, n := range s.nappers {
			cycles = append(cycles, n.cycles)
		}
		return s.logs(), cycles
	}
	wantLog, wantCycles := final(func(s *scene) {
		s.e.SetFastPath(false)
		s.e.RunUntil(s.a, 7000)
	})
	drives := map[string]func(s *scene){
		"all-fast": func(s *scene) { s.e.RunUntil(s.a, 7000) },
		"interleaved": func(s *scene) {
			for i, stop := range []Cycle{2, 16, 17, 300, 499, 502, 2999, 3100, 5099, 5101, 7000} {
				s.e.SetFastPath(i%2 == 0)
				s.e.RunUntil(s.a, stop)
				s.checkSettled(t, fmt.Sprintf("interleaved stop %d", stop))
			}
		},
	}
	for name, drive := range drives {
		log, cycles := final(drive)
		if !reflect.DeepEqual(log, wantLog) {
			t.Errorf("%s: work log diverged from the legacy engine's\n got %v\nwant %v", name, log, wantLog)
		}
		if !reflect.DeepEqual(cycles, wantCycles) {
			t.Errorf("%s: cycle counters %v, want %v", name, cycles, wantCycles)
		}
	}
}

// A wake that finds nothing to do must not lose the idle debt. An unbound
// sleeper is polled every edge and keeps the mark of its first idle cycle,
// so it is paid once, in bulk; a bound one woken spuriously by a port it
// ignores ticks (the Sleeper contract allows a no-op Tick in place of any
// skipped cycle) and is paid up to that tick; one whose reported wake moves
// mid-sleep is filed again without a new mark. Every way, each cycle is
// counted exactly once.
func TestSpuriousWakeKeepsIdleDebt(t *testing.T) {
	e := NewEngine()
	clk := e.NewClock("c", 1000)
	port := NewPort[int](8)
	port.Attach(clk)
	unbound := &napper{name: "u", timers: []Cycle{100}}
	deaf := &boundNapper{napper{name: "d", in: port, deaf: true, timers: []Cycle{100}}}
	clk.Register(unbound)
	clk.Register(deaf)
	clk.Register(&pusher{out: port, at: map[Cycle]int{10: 1, 11: 2, 40: 3}})
	// A third whose answer moves while it sleeps (150, then 120 from cycle 30
	// on): the sleep is filed again under the new cycle, the mark stays.
	moved := &napper{name: "m", timers: []Cycle{150}}
	clk.Register(moved)
	clk.Register(TickFunc(func(now Cycle) {
		if now == 30 {
			moved.timers = []Cycle{120}
		}
	}))
	e.RunUntil(clk, 60)
	e.Settle() // a settle point in the middle of the sleep
	if unbound.cycles != 60 || deaf.cycles != 60 || moved.cycles != 60 {
		t.Fatalf("at 60: cycles unbound=%d deaf=%d moved=%d, want 60", unbound.cycles, deaf.cycles, moved.cycles)
	}
	e.RunUntil(clk, 200)
	if want := []string{"m@120:timer120"}; !reflect.DeepEqual(moved.log, want) {
		t.Errorf("moved sleeper's log %v, want %v", moved.log, want)
	}
	for _, n := range []*napper{unbound, &deaf.napper, moved} {
		if n.cycles != 200 {
			t.Errorf("%s counted %d cycles of 200", n.name, n.cycles)
		}
	}
	// The unbound sleeper ticked at 0 (everything starts awake), slept from
	// 1: one payment at the settle point, one when it woke at 100, none in
	// between although it was polled on every edge.
	if want := [][2]Cycle{{59, 59}, {99, 40}}; !reflect.DeepEqual(unbound.skips[:2], want) {
		t.Errorf("unbound sleeper compensated %v, want first %v", unbound.skips, want)
	}
	if unbound.polls < 150 {
		t.Errorf("unbound sleeper polled %d times in 200 edges: it must be polled every edge", unbound.polls)
	}
	if log, want := append(unbound.log, deaf.log...), []string{"u@100:timer100", "d@100:timer100"}; !reflect.DeepEqual(log, want) {
		t.Errorf("work log %v, want %v", log, want)
	}
}

// The shapes bench/rigs.go registers: a Sleeper with no WakeSources is polled
// on every edge and never leaves the active set; a plain Ticker is simply
// always awake and never polled.
func TestUnboundSleeperAndPlainTickerAsBefore(t *testing.T) {
	e := NewEngine()
	clk := e.NewClock("rig", 1000)
	sleepers := make([]*napper, 8)
	for i := range sleepers {
		sleepers[i] = &napper{name: "s"}
		clk.Register(sleepers[i])
		NewPort[int](4).Attach(clk)
	}
	var awake int
	clk.Register(TickFunc(func(Cycle) { awake++ }))
	e.RunUntil(clk, 500)
	if awake != 500 {
		t.Errorf("plain ticker ticked %d of 500 edges", awake)
	}
	for i, s := range sleepers {
		if s.polls != 499 || s.ticks != 1 {
			t.Errorf("sleeper %d: %d polls, %d ticks; want polled on each of the 499 edges after the first, ticked on it", i, s.polls, s.ticks)
		}
		if !clk.isAwake(int32(i)) {
			t.Errorf("sleeper %d left the active set with no port to wake it", i)
		}
		if s.cycles != 500 {
			t.Errorf("sleeper %d counted %d cycles of 500", i, s.cycles)
		}
	}
	// A full word of plain Tickers (the tick-dispatch rig) is never idle.
	e3 := NewEngine()
	c3 := e3.NewClock("rig", 1000)
	var plain int
	for i := 0; i < 64; i++ {
		c3.Register(TickFunc(func(Cycle) { plain++ }))
	}
	e3.RunUntil(c3, 300)
	if plain != 64*300 {
		t.Errorf("64 plain tickers ticked %d times in 300 edges, want %d", plain, 64*300)
	}
	// A lone bound sleeper leaves the set and is woken by its timer alone:
	// every edge runs, but none polls it between its sleep and its wake.
	e2 := NewEngine()
	c2 := e2.NewClock("rig", 1000)
	lone := &boundNapper{napper{name: "l", timers: []Cycle{90_000}}}
	c2.Register(lone)
	e2.RunUntil(c2, 100_000)
	if polls := e2.WalkStats()[0].Polls; polls > 2 || lone.cycles != 100_000 {
		t.Errorf("lone bound sleeper: %d polls, %d cycles; want at most 2 polls and 100000 cycles", polls, lone.cycles)
	}
	if want := []string{"l@90000:timer90000"}; !slices.Equal(lone.log, want) {
		t.Errorf("lone bound sleeper did %v, want %v", lone.log, want)
	}
}

// armed counts the timer bits actually set, wheel and far set together.
func (t *wakeTimers) armed() (n int) {
	for _, w := range t.slots {
		n += bits.OnesCount64(w)
	}
	for _, w := range t.far {
		n += bits.OnesCount64(w)
	}
	return n
}

// After 10^6 sleep/wake cycles — re-sleeping on nearer, farther, far-set and
// never wakes while a port keeps waking the component — the timer structure
// holds at most one entry per component, the one it last reported.
func TestWakeTimersOneEntryPerComponent(t *testing.T) {
	e := NewEngine()
	clk := e.NewClock("c", 1000)
	const comps = 70 // two bitset words
	rng := NewRNG(7)
	type flighty struct {
		boundNapper
		next Cycle
	}
	fl := make([]*flighty, comps)
	for i := range fl {
		p := NewPort[int](8)
		p.Attach(clk)
		f := &flighty{}
		f.name, f.in = "f", p
		fl[i] = f
		clk.Register(f)
	}
	clk.Register(TickFunc(func(now Cycle) {
		for k := 0; k < 3; k++ { // wake three components a cycle
			f := fl[rng.Intn(comps)]
			f.in.Push(1)
			// and give each a fresh wake cycle of every kind for its re-sleep
			switch rng.Intn(5) {
			case 0:
				f.timers = nil // never
			case 1:
				f.timers = []Cycle{now + 2 + Cycle(rng.Intn(8))} // near
			case 2:
				f.timers = []Cycle{now + 2 + Cycle(rng.Intn(200))} // around the wheel's edge
			case 3:
				f.timers = []Cycle{now + 5000 + Cycle(rng.Intn(50_000))} // far
			case 4:
				f.timers = []Cycle{now + wheelSlots + 1}
			}
		}
	}))
	check := func() {
		live := 0
		for i, f := range fl {
			at, armed := clk.timers.armedAt(int32(i))
			if armed {
				live++
			}
			if clk.isAwake(int32(i)) {
				continue
			}
			if want := f.NextWorkCycle(clk.Now() - 1); armed != (want != WakeNever) || (armed && at != want) {
				t.Fatalf("cycle %d: sleeping component %d armed=%v at %d, reports %d", clk.Now(), i, armed, at, want)
			}
		}
		if got := clk.timers.armed(); got != live || got > comps {
			t.Fatalf("cycle %d: %d timer bits set for %d armed components (of %d)", clk.Now(), got, live, comps)
		}
	}
	for stop := Cycle(100_000); stop <= 1_000_000; stop += 100_000 {
		e.RunUntil(clk, stop)
		check()
		if v := e.CheckInvariants(); len(v) > 0 {
			t.Fatalf("cycle %d: %v", stop, v)
		}
	}
}

// Each way the engine's books can go wrong is a violation of its own.
func TestWakeAuditCatchesForgedState(t *testing.T) {
	// A napper asleep until 500 behind port p, and a port q nobody sleeps on
	// holding one committed value.
	var q *Port[int]
	build := func() (*Engine, *Clock, *boundNapper, *Port[int]) {
		e := NewEngine()
		clk := e.NewClock("c", 1000)
		p := NewPort[int](4)
		p.Attach(clk)
		q = NewPort[int](4)
		q.Attach(clk)
		n := &boundNapper{napper{name: "n", in: p, timers: []Cycle{500}}}
		clk.Register(n)
		clk.Register(&pusher{out: p, at: map[Cycle]int{5: 1}})
		clk.Register(&pusher{out: q, at: map[Cycle]int{6: 1}})
		e.RunUntil(clk, 50)
		if v := e.CheckInvariants(); len(v) != 0 {
			t.Fatalf("healthy engine: %v", v)
		}
		if clk.isAwake(0) {
			t.Fatal("napper still awake at 50")
		}
		return e, clk, n, p
	}
	rules := func(v []health.Violation) (out []string) {
		for _, x := range v {
			out = append(out, x.Rule)
		}
		return out
	}
	expect := func(name string, e *Engine, want ...string) {
		t.Helper()
		if got := rules(e.CheckInvariants()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: violations %v, want %v", name, got, want)
		}
	}

	e, _, n, _ := build()
	n.timers = []Cycle{20} // work appeared behind the engine's back
	expect("asleep with work", e, "wake-missed")

	e, _, n, _ = build()
	n.timers = []Cycle{700} // the answer moved, the timer did not
	expect("timer off", e, "wake-timer")

	e, _, n, _ = build()
	n.timers = nil // reports never, still armed
	expect("timer left armed", e, "wake-timer")

	e, clk, _, _ := build()
	clk.bound[0] &^= 1 // asleep, but no port commit knows to wake it
	expect("asleep unbound", e, "wake-missed")

	e, clk, _, _ = build()
	q.Push(9)
	clk.dirty, q.hdr.listed = clk.dirty[:0], false // staged on a port the barrier will not visit
	expect("staged but unlisted", e, "port-unlisted")

	e, clk, _, _ = build()
	q.Pop()
	clk.dirty, q.hdr.listed = clk.dirty[:0], false // freed space the producer would never see
	expect("popped but unlisted", e, "port-unlisted")

	e, _, _, _ = build()
	q.Push(9)
	q.hdr.listed = false // on the list without its flag
	expect("listed but unflagged", e, "port-dirty-list")

	e, _, _, _ = build()
	q.hdr.listed = true // flagged, never listed: no barrier would clear it
	expect("flag without list entry", e, "port-dirty-list")

	e, clk, _, _ = build()
	q.Push(9)
	clk.dirty = append(clk.dirty, &q.hdr) // listed twice
	expect("listed twice", e, "port-dirty-list")

	// The space end: a producer asleep behind the full port r, which a
	// consumer then pops. Left alone, the barrier wakes it and the audit is
	// content; each way of losing that wake leaves it asleep on a port that
	// accepts, which its own predicate reports.
	var r *Port[int]
	buildSpace := func() (*Engine, *Clock) {
		e := NewEngine()
		clk := e.NewClock("c", 1000)
		r = NewPort[int](2)
		r.Attach(clk)
		clk.Register(&stuffer{out: r, left: 5, rate: 1})
		e.RunUntil(clk, 50)
		if v := e.CheckInvariants(); len(v) != 0 || clk.isAwake(0) || !r.hdr.starved {
			t.Fatalf("healthy engine: violations %v, producer awake %v, refusal on record %v", v, clk.isAwake(0), r.hdr.starved)
		}
		return e, clk
	}
	e, clk = buildSpace()
	r.Pop()
	clk.commit()
	if !clk.isAwake(0) {
		t.Fatal("the barrier after a pop left the refused producer asleep")
	}
	expect("woken by the barrier", e)
	clk.awake[0] &^= 1 // the wake was raised and lost
	expect("asleep on a port that accepts", e, "wake-missed")

	e, clk = buildSpace()
	r.hdr.starved = false // the refusal was forgotten: the barrier has nobody to wake
	r.Pop()
	clk.commit()
	expect("refusal forgotten", e, "wake-missed")

	e, clk = buildSpace()
	r.hdr.pidx = -1 // the port no longer knows who produces into it
	r.Pop()
	clk.commit()
	expect("producer unbound from its port", e, "wake-missed")

	// RunUntilChecked audits at every watchdog sample and aborts.
	e, clk, n, _ = build()
	clk.OnBarrier(func() {
		if clk.Now() == 250 {
			n.timers = []Cycle{310}
		}
	})
	if wakeAuditEveryEdge {
		// The every-edge audit gets there first, at the edge itself.
		defer func() {
			if recover() == nil {
				t.Error("wakeaudit build ran past a missed wake without panicking")
			}
		}()
	}
	err := e.RunUntilChecked(clk, 2000, RunOptions{StallWindow: 800})
	var ie *health.InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("RunUntilChecked over a missed wake returned %v, want InvariantError", err)
	}
	if ie.RefCycle != 250 || len(ie.Dump.Violations) != 1 || ie.Dump.Violations[0].Rule != "wake-timer" {
		t.Errorf("error at cycle %d with %v, want wake-timer at 250", ie.RefCycle, ie.Dump.Violations)
	}
}

// A Sleeper whose wake source is not attached to a clock is never bound: an
// immediate-mode push raises no wake, so it has to be polled.
func TestUnattachedSourceIsPolled(t *testing.T) {
	e := NewEngine()
	clk := e.NewClock("c", 1000)
	p := NewPort[int](4) // never attached
	n := &boundNapper{napper{name: "n", in: p}}
	clk.Register(&pusher{out: p, at: map[Cycle]int{7: 70}})
	clk.Register(n)
	e.RunUntil(clk, 20)
	if want := []string{"n@7:pop70"}; !reflect.DeepEqual(n.log, want) {
		t.Errorf("log %v, want %v (immediate push seen the same edge, as ever)", n.log, want)
	}
}

// A word of the active set whose 64 members are all awake is walked by the
// same bit loop as a sparse one: it must poll, tick, file sleeps and pay idle
// debts exactly as the always-tick engine accounts them — here on a
// clock whose first word is full on edges 0, 1 and 40 to 42 (woken together,
// polled together, asleep together) and sparse in between.
func TestFullWordWalkMatchesLegacy(t *testing.T) {
	run := func(fast bool) (logs [][]string, ticks int) {
		e := NewEngine()
		e.SetFastPath(fast)
		clk := e.NewClock("c", 1000)
		ns := make([]*boundNapper, 64+7)
		for i := range ns {
			timers := []Cycle{40, 41, Cycle(100 + 3*i)}
			if i%3 == 0 {
				timers = append([]Cycle{1}, timers...)
			}
			ns[i] = &boundNapper{napper{name: fmt.Sprint("n", i), timers: timers}}
			clk.Register(ns[i])
		}
		for _, stop := range []Cycle{41, 400} {
			e.RunUntil(clk, stop)
			for _, n := range ns {
				if n.cycles != clk.Now() {
					t.Fatalf("fast=%v at %d: %s counts %d cycles", fast, stop, n.name, n.cycles)
				}
			}
		}
		for _, n := range ns {
			logs = append(logs, n.log)
			ticks += n.ticks
		}
		return logs, ticks
	}
	want, _ := run(false)
	got, ticks := run(true)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("work log diverged from the legacy engine's\n got %v\nwant %v", got, want)
	}
	if ticks > 71*8 {
		t.Errorf("%d ticks over 400 edges of 71 components: they are not sleeping", ticks)
	}
}

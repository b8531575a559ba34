package gpu

import (
	"fmt"
	"reflect"
	"testing"

	"dcl1sim/internal/mem"
	"dcl1sim/internal/noc"
	"dcl1sim/internal/sim"
	"dcl1sim/internal/workload"
)

// countedPump counts its pump's ticks; the pump's Sleeper and WakeSourcer
// methods are promoted, so the engine sees the same component.
type countedPump struct {
	*multiPump
	ticks int
}

func (p *countedPump) Tick(now sim.Cycle) { p.ticks++; p.multiPump.Tick(now) }

// A pump refused by a crossbar for want of a credit leaves the active set;
// the credit comes back in applyCredits, at the barrier of the edge the
// crossbar granted the VOQ's head on, and the pump injects on the next edge —
// the edge an always-ticking pump would. Output 0's sink takes one access
// every 3 cycles from a one-entry port and its source offers one a cycle, so
// its two-deep VOQ is full nearly always and empties at once if the pump is
// late. The second source wants output 1, drained every 40 cycles and fed in
// bursts of four: the pump is refused for both outputs at once (either credit
// must wake it, and output 0's comes first). In the second scene nothing is
// ever refused — deep VOQs, sinks that keep up — and the pump moves one access
// a cycle: stopped by its rate with more to move, it must not sleep. In the
// third the crossbar's injection ports are not attached, so the engine cannot
// bind the pump to them and nothing would wake it: it must go on polling.
func TestPumpBlockedOnCreditsWakesAfterApplyCredits(t *testing.T) {
	const cycles = 4000
	type scene struct {
		name      string
		rate, voq int
		periods   [2]sim.Cycle // sink o takes one access every periods[o] cycles
		unbound   bool
	}
	backPressure := scene{"back-pressure", pumpRate, 2, [2]sim.Cycle{3, 40}, false}
	rateBound := scene{"rate-bound", 1, 8, [2]sim.Cycle{1, 1}, false}
	unbound := scene{"unbound", pumpRate, 2, [2]sim.Cycle{3, 40}, true}
	run := func(sc scene, fast bool) ([]string, int) {
		s := &System{} // no pool: inject and sink allocate
		e := sim.NewEngine()
		e.SetFastPath(fast)
		clk := e.NewClock("noc", 1000)
		x := noc.New(noc.Params{Name: "x", Ins: 1, Outs: 2, VOQDepth: sc.voq})
		clk.Register(x)
		if !sc.unbound {
			x.AttachPorts(clk)
		}
		var srcs, dsts [2]*sim.Port[*mem.Access]
		for o := range dsts {
			srcs[o] = sim.NewPort[*mem.Access](4)
			srcs[o].Attach(clk)
			dsts[o] = sim.NewPort[*mem.Access](1)
			dsts[o].Attach(clk)
			x.SetEndpoint(o, s.sink(dsts[o]))
		}
		// Source o feeds output o: one access a cycle for output 0 while
		// there is room, four at once every 100 cycles for output 1.
		left := [2]int{600, 60}
		clk.Register(sim.TickFunc(func(now sim.Cycle) {
			n := [2]int{1, 0}
			if now%100 == 0 {
				n[1] = 4
			}
			for o := range srcs {
				for ; n[o] > 0 && left[o] > 0 && srcs[o].Push(&mem.Access{Line: uint64(o), ID: uint64(left[o])}); n[o]-- {
					left[o]--
				}
			}
		}))
		p := &countedPump{multiPump: &multiPump{
			srcs: srcs[:], rate: sc.rate,
			try:   func(a *mem.Access) bool { return s.inject(x, a, 0, int(a.Line), 2) },
			space: []sim.PortRef{x.InjectSpace(0)},
		}}
		clk.Register(p)
		var log []string
		clk.Register(sim.TickFunc(func(now sim.Cycle) {
			for o, period := range sc.periods {
				if now%period == 0 {
					if a, ok := dsts[o].Pop(); ok {
						log = append(log, fmt.Sprintf("out%d:%d@%d", o, a.ID, now))
					}
				}
			}
		}))
		for i := 0; i < 8; i++ { // always-ticking company
			clk.Register(sim.TickFunc(func(sim.Cycle) {}))
		}
		e.RunUntil(clk, cycles)
		if left != [2]int{} || x.Pending() != 0 {
			t.Fatalf("%s fast=%v: %v accesses unfed, %d packets left in the switch", sc.name, fast, left, x.Pending())
		}
		return log, p.ticks
	}
	for _, sc := range []scene{backPressure, rateBound, unbound} {
		want, eager := run(sc, false)
		if len(want) != 660 || eager != cycles {
			t.Fatalf("%s: reference run delivered %d accesses in %d pump ticks", sc.name, len(want), eager)
		}
		got, ticks := run(sc, true)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: deliveries differ from the always-ticking run:\n got %v\nwant %v", sc.name, got, want)
		}
		// One tick per injection and per refusal that puts it to sleep.
		if ticks > 3*660 && !sc.unbound {
			t.Errorf("%s: pump ticked %d times for 660 accesses over %d cycles: it polls through the back-pressure",
				sc.name, ticks, cycles)
		}
	}
}

// The reason this design exists, pinned where it shows: C-BLK on Baseline is
// one long back-pressure chain (DRAM, L2 MSHRs, L1 MSHRs, core LSQ), and on
// the core clock — cores, L1 nodes and the pumps between them — nearly every
// component is stalled on most edges. Ticked on every edge they stall on, the
// core clock made 0.72 ticks per component per edge on this 16-core run (0.75
// on the 80-core machine); with stalled components out of the active set it
// makes 0.18 (0.06). The bound leaves room for the model to move, none for a
// change that quietly re-awakes them.
func TestStalledComponentsLeaveTheActiveSet(t *testing.T) {
	app, _ := workload.ByName("C-BLK")
	s := NewSystem(quiesceCfg(), Design{Kind: Baseline}, app)
	s.Run()
	t.Logf("\n%s", walkTable(s.Eng.WalkStats()))
	w := s.Eng.WalkStats()[0]
	if w.Clock != "core" || w.Components != 4*16 || w.Edges != 4200 {
		t.Fatalf("first clock: %+v", w)
	}
	const bound = 0.3
	if per := float64(w.Ticks) / float64(int64(w.Components)*w.Edges); per > bound {
		t.Errorf("core clock: %d ticks over %d components x %d edges = %.3f per component-edge, bound %.2f: stalled components are being ticked",
			w.Ticks, w.Components, w.Edges, per, bound)
	}
	if w.SpaceWakes == 0 || w.Polls > w.Ticks {
		t.Errorf("core clock: %d space wakes, %d polls for %d ticks: back-pressure is not what wakes the chain", w.SpaceWakes, w.Polls, w.Ticks)
	}
}

// walkTable renders WalkStats as the markdown table of DESIGN.md §20.
func walkTable(ws []sim.WalkStats) string {
	out := "| clock | components | edges | ticks | polls | sleeps | timer wakes | data wakes | space wakes |\n|---|---|---|---|---|---|---|---|---|\n"
	for _, w := range ws {
		out += fmt.Sprintf("| %s | %d | %d | %d | %d | %d | %d | %d | %d |\n",
			w.Clock, w.Components, w.Edges, w.Ticks, w.Polls, w.Sleeps, w.TimerWakes, w.DataWakes, w.SpaceWakes)
	}
	return out
}

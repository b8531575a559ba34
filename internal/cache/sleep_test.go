package cache

import (
	"fmt"
	"reflect"
	"testing"

	"dcl1sim/internal/chaos"
	"dcl1sim/internal/mem"
	"dcl1sim/internal/sim"
)

// rig drives one controller from an engine, between three plain tickers (so
// they tick on every edge in either engine mode): a feeder pushing a script of
// requests into In, a slow lower level that takes one miss from MissOut every
// missPeriod cycles and returns its fill fillLat cycles later, and an upper
// level that takes one reply from Out every outPeriod cycles. With the four
// ports attached, as an L2 slice's are, the controller is bound and may leave
// the active set; unattached it is polled on every edge, and what it skips it
// skips on the word of its predicates alone, with no wake to paper over one
// that sleeps too long.
type rig struct {
	eng  *sim.Engine
	clk  *sim.Clock
	c    *Ctrl
	feed []*mem.Access
	out  []string // replies as the upper level took them: "<line>@<cycle>"
}

func newRig(p Params, fast, attach bool, script []*mem.Access, missPeriod, fillLat, outPeriod sim.Cycle) *rig {
	r := &rig{eng: sim.NewEngine(), c: New(p, 0, nil), feed: script}
	r.eng.SetFastPath(fast)
	r.clk = r.eng.NewClock("c", 1000)
	c := r.c
	for _, port := range []*sim.Port[*mem.Access]{c.In, c.Out, c.MissOut, c.FillIn} {
		if attach {
			port.Attach(r.clk)
		}
	}
	fills := sim.NewDelayQueue[*mem.Access]()
	r.clk.Register(sim.TickFunc(func(sim.Cycle) {
		if len(r.feed) > 0 && c.In.Push(r.feed[0]) {
			r.feed = r.feed[1:]
		}
	}))
	r.clk.Register(c)
	r.clk.Register(sim.TickFunc(func(now sim.Cycle) {
		if now%missPeriod == 0 {
			if a, ok := c.MissOut.Pop(); ok {
				fills.Push(a.Reply(), now+fillLat)
			}
		}
		for !c.FillIn.Full() {
			f, ok := fills.PopReady(now)
			if !ok {
				break
			}
			c.FillIn.Push(f)
		}
		if now%outPeriod == 0 {
			if a, ok := c.Out.Pop(); ok {
				r.out = append(r.out, fmt.Sprintf("%d@%d", a.Line, now))
			}
		}
	}))
	return r
}

// ctrlTicks returns how often the controller itself ticked: the clock's
// total less the two tickers that tick on every edge.
func (r *rig) ctrlTicks() int64 { return r.eng.WalkStats()[0].Ticks - 2*r.clk.Now() }

// stallScript makes the head of In stall every way a load can, and a store
// too: a third load of a line whose merge list holds two (until the fill), a
// load with both MSHRs taken (until a fill frees one), loads and a store
// behind the one-entry MissOut the lower level drains every 40 cycles. The
// hits at the end queue up in the reply pipe behind the two-entry Out, with
// nothing left to arrive: only space in Out can move them.
func stallScript() []*mem.Access {
	var s []*mem.Access
	for _, l := range []uint64{1, 1, 1, 2, 3, 3} {
		s = append(s, load(l))
	}
	s = append(s, store(4), load(5), load(6), store(7), load(1), load(8), load(8), load(8), load(9))
	for i := 0; i < 6; i++ {
		s = append(s, load(8), load(9))
	}
	return s
}

// A controller whose head request is stalled — on the MSHR file, on a full
// merge list, behind a full MissOut — or whose replies wait behind a full Out
// leaves the active set, and the stall counter a ticked controller advances
// on every one of those cycles is made up by SkipIdle: when it next ticks, or
// when the engine settles in the middle of the sleep, which is what every
// RunUntil boundary below does. At each of them every counter must equal the
// always-ticking engine's.
func TestStalledHeadSleepsToEagerStalls(t *testing.T) {
	p := l1Params()
	p.MSHRs, p.MissCap, p.OutCap = 2, 1, 2
	stops := []sim.Cycle{30, 55, 56, 57, 90, 130, 131, 200, 333, 500, 900, 2000}
	for _, attach := range []bool{true, false} {
		eager := newRig(p, false, attach, stallScript(), 40, 25, 9)
		lazy := newRig(p, true, attach, stallScript(), 40, 25, 9)
		for _, stop := range stops {
			eager.eng.RunUntil(eager.clk, stop)
			lazy.eng.RunUntil(lazy.clk, stop)
			if !reflect.DeepEqual(lazy.c.Stat, eager.c.Stat) {
				t.Fatalf("attached=%v: at cycle %d the sleeping controller's counters differ:\n got %+v\nwant %+v",
					attach, stop, lazy.c.Stat, eager.c.Stat)
			}
			if !reflect.DeepEqual(lazy.out, eager.out) {
				t.Fatalf("attached=%v: by cycle %d the sleeping controller's replies left at other cycles:\n got %v\nwant %v",
					attach, stop, lazy.out, eager.out)
			}
			if v := lazy.c.CheckInvariants(); len(v) != 0 {
				t.Fatalf("attached=%v: at cycle %d: %v", attach, stop, v)
			}
		}
		st := eager.c.Stat
		if st.MSHRStalls < 200 || st.Loads != 25 || st.Stores != 2 || len(eager.feed) != 0 || eager.c.Pending() != 0 {
			t.Fatalf("attached=%v: the scenario did not stall and drain as intended: %+v, %d unfed, %d pending",
				attach, st, len(eager.feed), eager.c.Pending())
		}
		if got, all := lazy.ctrlTicks(), eager.ctrlTicks(); all != 2000 || got > 400 {
			t.Errorf("attached=%v: controller ticked %d of 2000 cycles (eager engine: %d): it is not sleeping through its stalls",
				attach, got, all)
		}
	}
}

// An armed injector draws a fill stall on every cycle a fill waits, and an
// MSHR pinch by the window the cycle falls in: its controller's ticks are not
// interchangeable, so it must not sleep on a stall. The fault count and the
// counters of the fast engine equal the always-ticking engine's.
func TestChaosArmedControllerDoesNotSleepOnStalls(t *testing.T) {
	p := l1Params()
	p.MSHRs, p.MissCap, p.OutCap = 2, 1, 1
	spec, err := (&chaos.Spec{Seed: 3, FillStallProb: 0.5, MSHRPinchProb: 0.5, MSHRPinchLen: 40}).Normalized()
	if err != nil {
		t.Fatal(err)
	}
	run := func(fast bool) (Stats, int64, []string) {
		r := newRig(p, fast, true, stallScript(), 40, 25, 30)
		r.c.Chaos = chaos.New(spec, chaos.KindL1, 0, "l1")
		r.eng.RunUntil(r.clk, 3000)
		return r.c.Stat, r.c.Chaos.Fired(), r.out
	}
	want, faults, replies := run(false)
	got, fired, out := run(true)
	if faults < 20 {
		t.Fatalf("only %d faults fired: the scenario does not exercise the injector", faults)
	}
	if fired != faults || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(out, replies) {
		t.Errorf("fast engine: %d faults, %+v, replies %v\nalways-ticking: %d faults, %+v, replies %v", fired, got, out, faults, want, replies)
	}
}

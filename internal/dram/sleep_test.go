package dram

import (
	"fmt"
	"reflect"
	"testing"

	"dcl1sim/internal/mem"
	"dcl1sim/internal/sim"
)

// A channel whose queued requests all wait on busy banks sleeps to the exact
// cycle the first of those banks comes free; one whose finished accesses wait
// behind a full Out sleeps until a reply is taken. Requests arrive in bursts
// of ten that pile onto two banks — five walk one row of bank 2, row hits
// whose data time follows from the very cycle they issue on; then five open a
// new row of bank 0 each, the first of them arriving behind bank-2 requests
// that cannot issue yet — and the reader takes one reply every readPeriod
// cycles from a four-entry Out. Every reply must leave
// on the cycle it leaves an always-ticking channel, with the same counters —
// attached, where the channel leaves the active set and the barriers wake
// it, and unattached, where it is polled every edge and skips ticks on the
// word of NextWorkCycle alone.
func TestBusyBanksSleepToTheExactCycle(t *testing.T) {
	const cycles = 6000
	type result struct {
		stat  Stats
		out   []string
		ticks int64
	}
	run := func(fast, attach bool, readPeriod sim.Cycle) result {
		e := sim.NewEngine()
		e.SetFastPath(fast)
		clk := e.NewClock("mem", 924)
		c := New(Params{Name: "ch0", QueueCap: 4})
		if attach {
			c.In.Attach(clk)
			c.Out.Attach(clk)
		}
		var feed []*mem.Access
		for burst := 0; burst < 6; burst++ {
			for i := 0; i < 5; i++ { // line/16 is bank + 16*row
				feed = append(feed, rd(uint64(16*2+256*burst+i)))
			}
			for i := 0; i < 5; i++ {
				feed = append(feed, rd(uint64(256*(burst*5+i))))
			}
		}
		var out []string
		clk.Register(sim.TickFunc(func(now sim.Cycle) {
			if burst := int(now / 700); len(feed) > 60-10*(burst+1) && len(feed) > 0 && c.In.Push(feed[0]) {
				feed = feed[1:]
			}
		}))
		clk.Register(c)
		clk.Register(sim.TickFunc(func(now sim.Cycle) {
			if now%readPeriod == 0 {
				if a, ok := c.Out.Pop(); ok {
					out = append(out, fmt.Sprintf("%d@%d", a.Line, now))
				}
			}
		}))
		e.RunUntil(clk, cycles)
		if len(feed) != 0 || c.Pending() != 0 {
			t.Fatalf("fast=%v attached=%v: %d requests unfed, %d pending", fast, attach, len(feed), c.Pending())
		}
		return result{c.Stat, out, e.WalkStats()[0].Ticks - 2*cycles}
	}
	for _, readPeriod := range []sim.Cycle{1, 45} { // a reader that keeps up, and one that backs Out up
		for _, attach := range []bool{true, false} {
			want := run(false, attach, readPeriod)
			got := run(true, attach, readPeriod)
			if !reflect.DeepEqual(got.stat, want.stat) || !reflect.DeepEqual(got.out, want.out) {
				t.Errorf("reader period %d, attached=%v: sleeping channel differs from the always-ticking one:\n got %+v %v\nwant %+v %v",
					readPeriod, attach, got.stat, got.out, want.stat, want.out)
			}
			if want.stat.Reads != 60 || want.stat.RowHits < 20 || want.ticks != cycles {
				t.Fatalf("reader period %d: not the busy-bank scenario: %+v, %d ticks", readPeriod, want.stat, want.ticks)
			}
			// A tick to issue and a tick to complete per access, and the odd
			// wake that finds nothing to do yet.
			if got.ticks > 4*60 {
				t.Errorf("reader period %d, attached=%v: channel ticked %d times for 60 accesses over %d cycles", readPeriod, attach, got.ticks, cycles)
			}
		}
	}
}

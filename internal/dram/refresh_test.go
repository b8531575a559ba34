package dram

import (
	"testing"

	"dcl1sim/internal/sim"
)

func TestRefreshDisabledByDefault(t *testing.T) {
	c := newChan()
	drive(c, 0, 10000)
	if c.Stat.Refreshes != 0 {
		t.Fatalf("refreshes = %d with TREFI unset", c.Stat.Refreshes)
	}
}

func TestRefreshFiresPeriodically(t *testing.T) {
	tm := DefaultTiming()
	tm.TREFI = 1000
	tm.TRFC = 100
	c := New(Params{Name: "r", Timing: tm})
	drive(c, 0, 10050)
	// First refresh at 1000, then every 1000: ~10 in 10050 cycles.
	if c.Stat.Refreshes < 9 || c.Stat.Refreshes > 11 {
		t.Fatalf("refreshes = %d, want ~10", c.Stat.Refreshes)
	}
}

func TestRefreshClosesRows(t *testing.T) {
	tm := DefaultTiming()
	tm.TREFI = 500
	tm.TRFC = 50
	c := New(Params{Name: "r", Timing: tm})
	// Open row 0 well before the refresh.
	c.In.Push(rd(0))
	drive(c, 0, 200)
	c.Out.Pop()
	// Cross the refresh boundary, then access the same row: must be a miss
	// (row was closed by auto-refresh).
	drive(c, 200, 400)
	c.In.Push(rd(1))
	drive(c, 600, 300)
	if c.Stat.RowHits != 0 {
		t.Fatalf("row survived refresh: hits = %d", c.Stat.RowHits)
	}
	if c.Stat.RowMisses != 2 {
		t.Fatalf("row misses = %d, want 2", c.Stat.RowMisses)
	}
}

func TestRefreshDelaysService(t *testing.T) {
	// A request arriving during refresh waits out TRFC.
	tm := DefaultTiming()
	tm.TREFI = 400
	tm.TRFC = 200
	c := New(Params{Name: "r", Timing: tm})
	drive(c, 0, 401) // land exactly at the start of the refresh window
	c.In.Push(rd(0))
	var served sim.Cycle = -1
	for cyc := sim.Cycle(401); cyc < 2000; cyc++ {
		c.Tick(cyc)
		if _, ok := c.Out.Pop(); ok {
			served = cyc
			break
		}
	}
	if served < 0 {
		t.Fatal("request never served")
	}
	if served < 600 {
		t.Fatalf("served at %d, inside the refresh window", served)
	}
}

package sim

import (
	"testing"
	"testing/quick"
)

func TestClockTickOrder(t *testing.T) {
	e := NewEngine()
	c := e.NewClock("core", 1000)
	var order []int
	c.Register(TickFunc(func(Cycle) { order = append(order, 1) }))
	c.Register(TickFunc(func(Cycle) { order = append(order, 2) }))
	e.RunUntil(c, 1)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("components ticked out of registration order: %v", order)
	}
}

func TestRunUntilExactCycles(t *testing.T) {
	e := NewEngine()
	c := e.NewClock("core", 1400)
	var n int
	c.Register(TickFunc(func(Cycle) { n++ }))
	e.RunUntil(c, 100)
	if n != 100 {
		t.Fatalf("expected 100 ticks, got %d", n)
	}
	if c.Now() != 100 {
		t.Fatalf("clock Now = %d, want 100", c.Now())
	}
}

// Two clocks at a 2:1 frequency ratio must interleave exactly two fast ticks
// per slow tick over any horizon (no drift).
func TestTwoClockRatioNoDrift(t *testing.T) {
	e := NewEngine()
	fast := e.NewClock("fast", 1400)
	slow := e.NewClock("slow", 700)
	var nf, ns int64
	fast.Register(TickFunc(func(Cycle) { nf++ }))
	slow.Register(TickFunc(func(Cycle) { ns++ }))
	e.RunUntil(slow, 10000)
	if ns != 10000 {
		t.Fatalf("slow ticks = %d", ns)
	}
	// The fast clock should have completed 2x the slow ticks, within one tick
	// of boundary skew.
	if nf < 2*ns-2 || nf > 2*ns+2 {
		t.Fatalf("fast ticks = %d, want about %d", nf, 2*ns)
	}
}

// Non-integer ratio (1400:924) must keep long-run tick counts proportional to
// frequency: the engine schedules edge k at exactly k*1e6/mhz ps.
func TestIrrationalRatioProportion(t *testing.T) {
	e := NewEngine()
	core := e.NewClock("core", 1400)
	mem := e.NewClock("mem", 924)
	var nc, nm int64
	core.Register(TickFunc(func(Cycle) { nc++ }))
	mem.Register(TickFunc(func(Cycle) { nm++ }))
	e.RunUntil(core, 1_400_000)
	// After 1.4M core cycles (1 ms), mem should have ticked ~924000 times.
	if nm < 923_998 || nm > 924_002 {
		t.Fatalf("mem ticks = %d, want ~924000", nm)
	}
}

func TestClockEdgeTimesExact(t *testing.T) {
	c := &Clock{name: "x", mhz: 700}
	// Edge k at floor(k*1e6/700) ps; spot-check no cumulative drift at k=7e6:
	c.cycle = 7_000_000
	if got := c.nextEdgePs(); got != 10_000_000_000_000/1000*100/100 {
		// 7e6 cycles at 700 MHz = 10 ms = 1e10 ns = 1e13 ps.
		if got != 1e13 {
			t.Fatalf("edge time = %d ps, want 1e13", got)
		}
	}
}

func TestNewClockPanicsOnZeroFreq(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero-frequency clock")
		}
	}()
	NewEngine().NewClock("bad", 0)
}

// Determinism: interleaving across three clock domains must be identical for
// repeated runs with identical construction order.
func TestEngineDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		a := e.NewClock("a", 1400)
		b := e.NewClock("b", 700)
		c := e.NewClock("c", 924)
		a.Register(TickFunc(func(cy Cycle) { log = append(log, "a") }))
		b.Register(TickFunc(func(cy Cycle) { log = append(log, "b") }))
		c.Register(TickFunc(func(cy Cycle) { log = append(log, "c") }))
		e.RunUntil(a, 500)
		return log
	}
	l1, l2 := run(), run()
	if len(l1) != len(l2) {
		t.Fatalf("run lengths differ: %d vs %d", len(l1), len(l2))
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("interleaving diverges at %d: %s vs %s", i, l1[i], l2[i])
		}
	}
}

// Property: for any pair of frequencies, after running to N reference cycles
// the other clock's tick count lies between (N-1)*f2/f1 and N*f2/f1 (the
// engine stops as soon as the reference clock finishes its N-th tick, so the
// other domain may trail by up to one reference period).
func TestClockProportionProperty(t *testing.T) {
	f := func(f1, f2 uint16) bool {
		m1 := int64(f1%2000) + 1
		m2 := int64(f2%2000) + 1
		e := NewEngine()
		c1 := e.NewClock("c1", m1)
		c2 := e.NewClock("c2", m2)
		var n2 int64
		c2.Register(TickFunc(func(Cycle) { n2++ }))
		const N = 3000
		e.RunUntil(c1, N)
		lo := (N - 1) * m2 / m1
		hi := N*m2/m1 + 2
		return n2 >= lo-2 && n2 <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineClocksAndNowPs(t *testing.T) {
	e := NewEngine()
	a := e.NewClock("a", 1000)
	b := e.NewClock("b", 500)
	cs := e.Clocks()
	if len(cs) != 2 || cs[0].Name() != "a" || cs[1].Name() != "b" {
		t.Fatalf("Clocks() = %v", cs)
	}
	if a.FreqMHz() != 1000 || b.FreqMHz() != 500 {
		t.Fatal("FreqMHz mismatch")
	}
	e.RunUntil(a, 10)
	if a.Now() != 10 {
		t.Fatalf("a.Now = %d", a.Now())
	}
}

func TestRunUntilEmptyEnginePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := NewEngine()
	c := &Clock{name: "orphan", mhz: 1}
	e.RunUntil(c, 1)
}

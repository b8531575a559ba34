package sim

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dcl1sim/internal/health"
)

// wedgedRig is a producer ticking into a bounded queue that nobody drains:
// after the queue fills, no probe advances while the queue stays busy — the
// canonical deadlock shape.
func wedgedRig() (*Engine, *Clock, *health.Monitor, *Queue[int]) {
	e := NewEngine()
	clk := e.NewClock("core", 1000)
	q := NewQueue[int](4)
	clk.Register(TickFunc(func(c Cycle) { q.Push(int(c)) }))
	m := health.NewMonitor()
	m.AddProbe(health.Probe{
		Name:   "producer",
		Sample: func() int64 { p, _ := q.Traffic(); return p },
		Busy:   func() bool { return q.Len() > 0 },
	})
	w := NewQueueWatcher("rig", "q", q)
	w.AgeBound = 200 // well inside the test's stall window
	m.AddObserver(w.Observe)
	m.AddChecker(w)
	return e, clk, m, q
}

func TestRunUntilCheckedDetectsDeadlock(t *testing.T) {
	e, clk, m, _ := wedgedRig()
	err := e.RunUntilChecked(clk, 1_000_000, RunOptions{Monitor: m, StallWindow: 1000})
	var dl *health.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if dl.Dump == nil {
		t.Fatal("deadlock error without dump")
	}
	if got := dl.Dump.Stalled(); len(got) != 1 || got[0] != "producer" {
		t.Fatalf("stalled probes = %v, want [producer]", got)
	}
	if txt := dl.Dump.Text(); !strings.Contains(txt, "producer") {
		t.Fatalf("dump text does not name the stalled probe:\n%s", txt)
	}
	// The run must have aborted long before the target cycle.
	if clk.Now() >= 1_000_000 {
		t.Fatalf("watchdog never fired; ran to cycle %d", clk.Now())
	}
	// The queue watcher should have flagged the stuck head in the dump.
	found := false
	for _, v := range dl.Dump.Violations {
		if v.Rule == "queue-head-stuck" {
			found = true
		}
	}
	if !found {
		t.Fatalf("dump violations missing queue-head-stuck: %v", dl.Dump.Violations)
	}
}

func TestRunUntilCheckedHealthy(t *testing.T) {
	// A self-draining pipeline advances forever: no deadlock, and the chunked
	// run must land exactly on the target cycle.
	e := NewEngine()
	clk := e.NewClock("core", 1400)
	var count int64
	clk.Register(TickFunc(func(Cycle) { count++ }))
	m := health.NewMonitor()
	m.AddProbe(health.Probe{
		Name:   "counter",
		Sample: func() int64 { return count },
		Busy:   func() bool { return true },
	})
	if err := e.RunUntilChecked(clk, 50_000, RunOptions{Monitor: m, StallWindow: 500}); err != nil {
		t.Fatalf("healthy run errored: %v", err)
	}
	if clk.Now() != 50_000 || count != 50_000 {
		t.Fatalf("cycle %d count %d, want 50000", clk.Now(), count)
	}
	if v := m.CheckInvariants(); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
}

func TestRunUntilCheckedMatchesRunUntil(t *testing.T) {
	// Chunked execution must tick components in exactly the same order as a
	// single RunUntil: two clock domains whose interleaving is recorded.
	build := func() (*Engine, *Clock, *[]string) {
		e := NewEngine()
		a := e.NewClock("a", 1400)
		b := e.NewClock("b", 900)
		var log []string
		a.Register(TickFunc(func(c Cycle) { log = append(log, "a") }))
		b.Register(TickFunc(func(c Cycle) { log = append(log, "b") }))
		return e, a, &log
	}
	e1, a1, log1 := build()
	e1.RunUntil(a1, 5000)
	e2, a2, log2 := build()
	var n int64
	m := health.NewMonitor()
	m.AddProbe(health.Probe{Name: "n", Sample: func() int64 { n++; return n }})
	if err := e2.RunUntilChecked(a2, 5000, RunOptions{Monitor: m, StallWindow: 56}); err != nil {
		t.Fatalf("checked run errored: %v", err)
	}
	if len(*log1) != len(*log2) {
		t.Fatalf("tick counts differ: %d vs %d", len(*log1), len(*log2))
	}
	for i := range *log1 {
		if (*log1)[i] != (*log2)[i] {
			t.Fatalf("tick order diverges at %d: %s vs %s", i, (*log1)[i], (*log2)[i])
		}
	}
}

func TestRunUntilCheckedDeadline(t *testing.T) {
	e := NewEngine()
	clk := e.NewClock("core", 1000)
	var count int64
	clk.Register(TickFunc(func(Cycle) { count++ }))
	m := health.NewMonitor()
	m.AddProbe(health.Probe{Name: "counter", Sample: func() int64 { return count }})
	err := e.RunUntilChecked(clk, 1_000_000_000, RunOptions{Monitor: m, Deadline: time.Nanosecond})
	var de *health.DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("expected DeadlineError, got %v", err)
	}
	if de.Dump == nil || de.Dump.Reason != "deadline" {
		t.Fatalf("deadline error dump = %+v", de.Dump)
	}
}

func TestRunUntilCheckedQuiescentIsNotDeadlock(t *testing.T) {
	// A system that stops advancing with nothing busy has simply finished:
	// the watchdog must not fire.
	e := NewEngine()
	clk := e.NewClock("core", 1000)
	var count int64
	clk.Register(TickFunc(func(c Cycle) {
		if c < 100 {
			count++
		}
	}))
	m := health.NewMonitor()
	m.AddProbe(health.Probe{
		Name:   "counter",
		Sample: func() int64 { return count },
		Busy:   func() bool { return false },
	})
	if err := e.RunUntilChecked(clk, 20_000, RunOptions{Monitor: m, StallWindow: 1000}); err != nil {
		t.Fatalf("quiescent run flagged unhealthy: %v", err)
	}
}

func TestQueueWatcherHeadAge(t *testing.T) {
	q := NewQueue[int](4)
	w := NewQueueWatcher("comp", "q", q)
	w.Observe(0)
	if age := w.HeadAge(); age != 0 {
		t.Fatalf("empty queue head age = %d", age)
	}
	q.Push(1)
	w.Observe(100)
	w.Observe(5100)
	if age := w.HeadAge(); age != 5000 {
		t.Fatalf("head age = %d, want 5000", age)
	}
	if v := w.CheckInvariants(); len(v) != 0 {
		t.Fatalf("age below bound reported: %v", v)
	}
	w.Observe(100 + DefaultHeadAgeBound)
	v := w.CheckInvariants()
	if len(v) != 1 || v[0].Rule != "queue-head-stuck" {
		t.Fatalf("expected queue-head-stuck, got %v", v)
	}
	q.Pop()
	q.Push(2)
	w.Observe(200 + DefaultHeadAgeBound)
	if len(w.CheckInvariants()) != 0 {
		t.Fatal("pop did not reset head age")
	}
}

package core

import (
	"testing"

	"dcl1sim/internal/mem"
	"dcl1sim/internal/sim"
)

// TestCapBlockResumesBelowCap: a wavefront stopped by MaxOutstanding resumes
// as soon as one reply returns (scoreboard semantics), without waiting for
// all outstanding transactions.
func TestCapBlockResumesBelowCap(t *testing.T) {
	p := Params{ID: 0, MaxOutstanding: 2, LSQCap: 16, OutCap: 16}
	c := New(p)
	var ops []Op
	for i := 0; i < 6; i++ {
		ops = append(ops, Op{Kind: OpLoad, Lines: []uint64{uint64(i)}})
	}
	c.AddWave(&listProgram{ops: ops})
	tick(c, 0, 10)
	if c.Stat.MemIssued != 2 {
		t.Fatalf("issued %d before hitting the cap, want 2", c.Stat.MemIssued)
	}
	// Return ONE reply: the wave must issue exactly one more.
	a, _ := c.Out.Pop()
	c.In.Push(a.Reply())
	tick(c, 10, 10)
	if c.Stat.MemIssued != 3 {
		t.Fatalf("after one reply issued = %d, want 3 (resume below cap)", c.Stat.MemIssued)
	}
}

// TestFenceWaitsForAll: a blocking (load-use) op keeps the wavefront stalled
// until every outstanding transaction returns, even below the cap.
func TestFenceWaitsForAll(t *testing.T) {
	p := Params{ID: 0, MaxOutstanding: 8, LSQCap: 16, OutCap: 16}
	c := New(p)
	c.AddWave(&listProgram{ops: []Op{
		{Kind: OpLoad, Lines: []uint64{1, 2, 3}, Blocking: true},
		{Kind: OpCompute, Latency: 1},
	}})
	tick(c, 0, 10)
	if c.Stat.ComputeIssued != 0 {
		t.Fatal("compute issued before the fence cleared")
	}
	// Return 2 of 3 replies: still fenced.
	var replies []*mem.Access
	for {
		a, ok := c.Out.Pop()
		if !ok {
			break
		}
		replies = append(replies, a.Reply())
	}
	if len(replies) != 3 {
		t.Fatalf("transactions = %d", len(replies))
	}
	c.In.Push(replies[0])
	c.In.Push(replies[1])
	tick(c, 10, 10)
	if c.Stat.ComputeIssued != 0 {
		t.Fatal("fence released with outstanding transactions")
	}
	c.In.Push(replies[2])
	tick(c, 20, 5)
	if c.Stat.ComputeIssued != 1 {
		t.Fatalf("compute after full drain = %d", c.Stat.ComputeIssued)
	}
}

// TestSleepHintDoesNotLoseWakeups: a core that went to sleep on "nothing
// issuable" must wake when a reply unblocks a wavefront.
func TestSleepHintDoesNotLoseWakeups(t *testing.T) {
	p := Params{ID: 0, MaxOutstanding: 1, LSQCap: 8, OutCap: 8}
	c := New(p)
	c.AddWave(&listProgram{ops: []Op{
		{Kind: OpLoad, Lines: []uint64{1}},
		{Kind: OpLoad, Lines: []uint64{2}},
	}})
	tick(c, 0, 50) // long idle stretch: sleepUntil is far in the future
	a, _ := c.Out.Pop()
	c.In.Push(a.Reply())
	tick(c, 50, 5)
	if c.Stat.MemIssued != 2 {
		t.Fatalf("wakeup lost: issued = %d", c.Stat.MemIssued)
	}
}

func TestRTTHistogramPopulated(t *testing.T) {
	c := newCore(1, []Op{{Kind: OpLoad, Lines: []uint64{4}, Blocking: true}})
	pending := sim.NewDelayQueue[*mem.Access]()
	for cyc := sim.Cycle(0); cyc < 60; cyc++ {
		c.Tick(cyc)
		echo(c, cyc, 20, pending)
	}
	if c.Stat.RTT.Count() != 1 {
		t.Fatalf("histogram samples = %d", c.Stat.RTT.Count())
	}
	if p99 := c.Stat.RTT.Percentile(99); p99 < 20 || p99 > 64 {
		t.Fatalf("p99 = %d, want ~20 at log resolution", p99)
	}
}

package core

import (
	"testing"

	"dcl1sim/internal/mem"
	"dcl1sim/internal/sim"
)

// listProgram replays a fixed op list then ends.
type listProgram struct {
	ops []Op
	i   int
}

func (p *listProgram) Next() Op {
	if p.i >= len(p.ops) {
		return Op{Kind: OpEnd}
	}
	op := p.ops[p.i]
	p.i++
	return op
}

func newCore(waves int, ops []Op) *Core {
	c := New(Params{ID: 0})
	for w := 0; w < waves; w++ {
		cp := make([]Op, len(ops))
		copy(cp, ops)
		c.AddWave(&listProgram{ops: cp})
	}
	return c
}

func tick(c *Core, from sim.Cycle, n int) sim.Cycle {
	for i := 0; i < n; i++ {
		c.Tick(from + sim.Cycle(i))
	}
	return from + sim.Cycle(n)
}

// echo feeds every request straight back as a reply after d cycles.
func echo(c *Core, now sim.Cycle, d sim.Cycle, pending *sim.DelayQueue[*mem.Access]) {
	for {
		a, ok := c.Out.Pop()
		if !ok {
			break
		}
		pending.Push(a.Reply(), now+d)
	}
	for {
		r, ok := pending.PopReady(now)
		if !ok {
			break
		}
		if !c.In.Push(r) {
			pending.Push(r, now+1)
			break
		}
	}
}

func TestComputeOnlyIPC(t *testing.T) {
	// One wavefront, all 1-cycle compute: IPC must approach 1.
	ops := make([]Op, 100)
	for i := range ops {
		ops[i] = Op{Kind: OpCompute, Latency: 1}
	}
	c := newCore(1, ops)
	tick(c, 0, 105) // +5: consuming OpEnd takes one extra issue slot
	if c.Stat.Issued != 100 {
		t.Fatalf("issued = %d", c.Stat.Issued)
	}
	if !c.Done() {
		t.Fatal("program must be done")
	}
}

func TestComputeLatencyThrottlesSingleWave(t *testing.T) {
	ops := make([]Op, 10)
	for i := range ops {
		ops[i] = Op{Kind: OpCompute, Latency: 4}
	}
	c := newCore(1, ops)
	tick(c, 0, 100)
	if got := c.Stat.IPC(); got > 0.3 {
		t.Fatalf("IPC = %f, single wave with 4-cycle ops must be ~0.25", got)
	}
}

func TestMultithreadingHidesLatency(t *testing.T) {
	// 4 wavefronts with 4-cycle compute interleave to IPC ~1.
	ops := make([]Op, 50)
	for i := range ops {
		ops[i] = Op{Kind: OpCompute, Latency: 4}
	}
	c := newCore(4, ops)
	tick(c, 0, 210)
	if got := float64(c.Stat.Issued) / 200; got < 0.9 {
		t.Fatalf("4 waves should saturate issue: IPC = %f", got)
	}
}

func TestLoadProducesTransactions(t *testing.T) {
	c := newCore(1, []Op{
		{Kind: OpLoad, Lines: []uint64{1, 2, 3}, Bytes: 32},
	})
	tick(c, 0, 5)
	if c.Stat.Transactions != 3 {
		t.Fatalf("transactions = %d", c.Stat.Transactions)
	}
	seen := 0
	for {
		a, ok := c.Out.Pop()
		if !ok {
			break
		}
		if a.Kind != mem.Load || a.ReqBytes != 32 || a.Core != 0 {
			t.Fatalf("bad access %+v", a)
		}
		seen++
	}
	if seen == 0 {
		t.Fatal("no transactions reached Out")
	}
}

func TestBlockingLoadStallsUntilReply(t *testing.T) {
	c := newCore(1, []Op{
		{Kind: OpLoad, Lines: []uint64{5}, Blocking: true},
		{Kind: OpCompute, Latency: 1},
	})
	tick(c, 0, 20)
	if c.Stat.Issued != 1 {
		t.Fatalf("issued = %d, compute must wait for the load", c.Stat.Issued)
	}
	// Reply unblocks.
	a, _ := c.Out.Pop()
	c.In.Push(a.Reply())
	tick(c, 20, 5)
	if c.Stat.Issued != 2 {
		t.Fatalf("issued after reply = %d", c.Stat.Issued)
	}
	if c.OutstandingTotal() != 0 {
		t.Fatal("outstanding not cleared")
	}
}

func TestMaxOutstandingBlocks(t *testing.T) {
	p := Params{ID: 0, MaxOutstanding: 2}
	c := New(p)
	ops := []Op{
		{Kind: OpLoad, Lines: []uint64{1}},
		{Kind: OpLoad, Lines: []uint64{2}},
		{Kind: OpLoad, Lines: []uint64{3}},
	}
	c.AddWave(&listProgram{ops: ops})
	tick(c, 0, 20)
	// After two loads the wavefront hits MaxOutstanding and blocks.
	if c.Stat.MemIssued != 2 {
		t.Fatalf("mem issued = %d, want 2", c.Stat.MemIssued)
	}
	// Replies release the gate.
	var replies []*mem.Access
	for {
		a, ok := c.Out.Pop()
		if !ok {
			break
		}
		replies = append(replies, a.Reply())
	}
	for _, r := range replies {
		c.In.Push(r)
	}
	tick(c, 20, 10)
	if c.Stat.MemIssued != 3 {
		t.Fatalf("mem issued after replies = %d", c.Stat.MemIssued)
	}
}

func TestLSUInjectionRateLimit(t *testing.T) {
	p := Params{ID: 0, OutCap: 64, LSQCap: 64, MaxOutstanding: 64}
	c := New(p)
	c.AddWave(&listProgram{ops: []Op{
		{Kind: OpLoad, Lines: []uint64{1, 2, 3, 4, 5, 6, 7, 8}},
	}})
	c.Tick(0)
	c.Tick(1)
	// One instruction issued; at most 2 transactions injected in 2 cycles.
	if c.Out.Len() > 2 {
		t.Fatalf("LSU injected %d transactions in 2 cycles", c.Out.Len())
	}
	tick(c, 2, 20)
	if c.Out.Len() != 8 {
		t.Fatalf("eventually all 8 must inject, got %d", c.Out.Len())
	}
}

func TestRoundTripLatencyStat(t *testing.T) {
	c := newCore(1, []Op{{Kind: OpLoad, Lines: []uint64{9}, Blocking: true}})
	pending := sim.NewDelayQueue[*mem.Access]()
	for cyc := sim.Cycle(0); cyc < 100; cyc++ {
		c.Tick(cyc)
		echo(c, cyc, 30, pending)
	}
	if c.Stat.RTT.Count() != 1 {
		t.Fatalf("RTT count = %d", c.Stat.RTT.Count())
	}
	if rtt := c.Stat.MeanRTT(); rtt < 30 || rtt > 40 {
		t.Fatalf("RTT = %f, want ~30", rtt)
	}
}

func TestStoreAndAtomicKinds(t *testing.T) {
	c := newCore(1, []Op{
		{Kind: OpStore, Lines: []uint64{1}},
		{Kind: OpNonL1, Lines: []uint64{2}},
		{Kind: OpAtomic, Lines: []uint64{3}},
	})
	tick(c, 0, 20)
	kinds := map[mem.Kind]int{}
	for {
		a, ok := c.Out.Pop()
		if !ok {
			break
		}
		kinds[a.Kind]++
	}
	if kinds[mem.Store] != 1 || kinds[mem.NonL1] != 1 || kinds[mem.Atomic] != 1 {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestWaveRoundRobinFairness(t *testing.T) {
	// Two wavefronts of compute ops must alternate issues.
	ops := make([]Op, 40)
	for i := range ops {
		ops[i] = Op{Kind: OpCompute, Latency: 1}
	}
	c := newCore(2, ops)
	tick(c, 0, 60)
	// Both waves progress: neither can be done while the other has >10 left.
	w0, w1 := c.waves[0], c.waves[1]
	p0 := w0.prog.(*listProgram).i
	p1 := w1.prog.(*listProgram).i
	if p0 == 0 || p1 == 0 {
		t.Fatalf("starvation: progress %d vs %d", p0, p1)
	}
	diff := p0 - p1
	if diff < -5 || diff > 5 {
		t.Fatalf("unfair issue: %d vs %d", p0, p1)
	}
}

func TestLSQBackpressurePushback(t *testing.T) {
	// LSQ too small for a divergent op: the op must replay, not vanish.
	p := Params{ID: 0, LSQCap: 4, MaxOutstanding: 64, OutCap: 1}
	c := New(p)
	lines := make([]uint64, 8)
	for i := range lines {
		lines[i] = uint64(i)
	}
	c.AddWave(&listProgram{ops: []Op{{Kind: OpLoad, Lines: lines}}})
	got := 0
	for cyc := sim.Cycle(0); cyc < 200; cyc++ {
		c.Tick(cyc)
		for {
			if _, ok := c.Out.Pop(); !ok {
				break
			}
			got++
		}
	}
	if got != 8 {
		t.Fatalf("transactions delivered = %d, want 8 (op must not be lost)", got)
	}
	if c.Stat.MemIssued != 1 {
		t.Fatalf("mem issued = %d, pushback must not double-count", c.Stat.MemIssued)
	}
}

func TestIPCAndStallStats(t *testing.T) {
	c := newCore(1, []Op{{Kind: OpCompute, Latency: 1}})
	tick(c, 0, 10)
	if c.Stat.IPC() != 0.1 {
		t.Fatalf("IPC = %f", c.Stat.IPC())
	}
	if c.Stat.StallNoReady != 9 {
		t.Fatalf("stalls = %d", c.Stat.StallNoReady)
	}
	var s Stats
	if s.IPC() != 0 || s.MeanRTT() != 0 {
		t.Fatal("empty stats must be zero")
	}
}

func TestDoneDetection(t *testing.T) {
	c := newCore(3, []Op{{Kind: OpCompute, Latency: 1}})
	if c.Done() {
		t.Fatal("not done before running")
	}
	tick(c, 0, 20)
	if !c.Done() {
		t.Fatal("all programs ended; Done must be true")
	}
	empty := New(Params{})
	if !empty.Done() {
		t.Fatal("core with no wavefronts is trivially done")
	}
}

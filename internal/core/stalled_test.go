package core

import (
	"fmt"
	"reflect"
	"testing"

	"dcl1sim/internal/mem"
	"dcl1sim/internal/sim"
)

// scriptProgram issues whatever the test hands it next.
type scriptProgram struct{ next func() Op }

func (p *scriptProgram) Next() Op { return p.next() }

// A memory op with no lines completes without LSQ space. The expansion pass
// stops at a full LSQ, so it must not stop while such an op is pending behind
// a wavefront that still has lines to push: the zero-line op has to complete
// on the cycle after it issued, exactly as the scan over every wavefront did.
func TestZeroLineOpCompletesWhileLSQFull(t *testing.T) {
	c := New(Params{LSQCap: 2, OutCap: 1, MaxOutstanding: 64})
	wide := Op{Kind: OpLoad, Lines: []uint64{1, 2, 3, 4, 5, 6, 7, 8}, Bytes: 32}
	armed, fired := false, false
	c.AddWave(&listProgram{ops: []Op{wide}})
	c.AddWave(&scriptProgram{next: func() Op {
		if armed && !fired {
			fired = true
			return Op{Kind: OpLoad, Bytes: 32} // no lines at all
		}
		return Op{Kind: OpCompute, Latency: 1}
	}})
	// Nobody drains Out: one line lands there, two fill the LSQ, and wave 0
	// stays mid-expansion with lines left.
	now := tick(c, 0, 8)
	if !c.lsq.Full() || !c.waves[0].pendActive {
		t.Fatalf("setup: LSQ full %t, wave 0 expanding %t", c.lsq.Full(), c.waves[0].pendActive)
	}
	armed = true
	for !fired {
		now = tick(c, now, 1)
	}
	if !c.waves[1].pendActive || c.pendZero != 1 {
		t.Fatalf("zero-line op not pending after issue: pendActive %t pendZero %d", c.waves[1].pendActive, c.pendZero)
	}
	issued := c.Stat.Issued
	tick(c, now, 1)
	if c.waves[1].pendActive || c.pendZero != 0 {
		t.Fatalf("zero-line op still pending one cycle after issue (pendZero %d)", c.pendZero)
	}
	if c.Stat.Issued != issued+1 {
		t.Fatalf("wave 1 did not issue on the cycle its zero-line op completed: issued %d -> %d", issued, c.Stat.Issued)
	}
	if !c.lsq.Full() || !c.waves[0].pendActive {
		t.Fatal("wave 0 should still be stalled on the full LSQ")
	}
	if v := c.CheckInvariants(); len(v) != 0 {
		t.Fatalf("invariants: %v", v)
	}
}

// referenceTick is Tick with the issue stage written as the scan it replaced:
// every wavefront visited in round-robin order, its flags tested at the visit.
func referenceTick(c *Core, now sim.Cycle) {
	c.Stat.Cycles++
	c.retire(now)
	c.expandPending(now)
	c.injectLSQ()
	if now < c.sleepUntil {
		c.Stat.StallNoReady++
		return
	}
	issued := false
	for scanned := 0; !issued && scanned < len(c.waves); scanned++ {
		w := &c.waves[(c.rr+scanned)%len(c.waves)]
		if w.done || w.blocked || w.pendActive {
			continue
		}
		issued = c.issueWave(w, now)
	}
	c.rr = (c.rr + 1) % len(c.waves)
	if !issued {
		c.Stat.StallNoReady++
		next := sim.Cycle(1) << 60
		for _, w := range c.waves {
			if w.done || w.blocked || w.pendActive {
				continue
			}
			if w.readyAt < next {
				next = w.readyAt
			}
		}
		c.sleepUntil = next
	}
}

// mixedCore builds a core whose wavefronts run a seeded mix of compute ops,
// blocking and non-blocking loads (some with no lines), stores and early
// exits, logging every op handed to the issue stage.
func mixedCore(waves int, log *[]string) *Core {
	c := New(Params{MaxOutstanding: 3, LSQCap: 4, OutCap: 2, InCap: 2})
	for w := 0; w < waves; w++ {
		w := w
		rng := sim.NewRNG(uint64(1000 + w))
		n := 0
		c.AddWave(&scriptProgram{next: func() Op {
			n++
			var op Op
			switch r := rng.Intn(20); {
			case n > 40+w:
				op = Op{Kind: OpEnd}
			case r < 7:
				op = Op{Kind: OpCompute, Latency: sim.Cycle(1 + rng.Intn(6))}
			case r < 13:
				lines := make([]uint64, rng.Intn(4)) // 0..3 lines
				for i := range lines {
					lines[i] = uint64(w*1000 + n*4 + i)
				}
				op = Op{Kind: OpLoad, Lines: lines, Bytes: 32, Blocking: r < 10}
			case r < 16:
				op = Op{Kind: OpStore, Lines: []uint64{uint64(w*1000 + n)}, Bytes: 32}
			default:
				op = Op{Kind: OpCompute, Latency: 1}
			}
			*log = append(*log, fmt.Sprintf("w%d:%d/%d", w, op.Kind, len(op.Lines)))
			return op
		}})
	}
	return c
}

// The issue stage walks the issuable set with bit scans. Over a machine whose
// wavefronts are a shifting mix of finished, fence-blocked, cap-blocked,
// mid-expansion, latency-waiting and ready — 70 of them, so the set spans two
// words — it must hand out the same ops to the same wavefronts on the same
// cycles as the round-robin scan over every wavefront.
func TestIssueOrderMatchesReferenceScan(t *testing.T) {
	// The subtest keeps the name it had while a greedy-then-oldest policy ran
	// beside round robin; round robin is the one policy left.
	t.Run("gto=false", func(t *testing.T) {
		var gotLog, wantLog []string
		got, want := mixedCore(70, &gotLog), mixedCore(70, &wantLog)
		gotMem, wantMem := sim.NewDelayQueue[*mem.Access](), sim.NewDelayQueue[*mem.Access]()
		sawMixed := false
		for now := sim.Cycle(0); now < 20000 && !(got.Done() && want.Done()); now++ {
			mark := len(gotLog)
			got.Tick(now)
			referenceTick(want, now)
			for i := mark; i < len(gotLog); i++ {
				gotLog[i] = fmt.Sprintf("%d %s", now, gotLog[i])
			}
			for i := mark; i < len(wantLog); i++ {
				wantLog[i] = fmt.Sprintf("%d %s", now, wantLog[i])
			}
			echo(got, now, 17, gotMem)
			echo(want, now, 17, wantMem)
			if v := got.CheckInvariants(); len(v) != 0 {
				t.Fatalf("cycle %d: invariants: %v", now, v)
			}
			var blocked, ready int
			for _, w := range got.waves {
				switch {
				case w.blocked:
					blocked++
				case !w.stalled():
					ready++
				}
			}
			if blocked > 0 && ready > 0 {
				sawMixed = true
			}
		}
		if !sawMixed {
			t.Fatal("the run never had blocked and ready wavefronts at once")
		}
		if !got.Done() {
			t.Fatal("programs did not finish: the comparison covers only part of them")
		}
		if !reflect.DeepEqual(gotLog, wantLog) {
			for i := range gotLog {
				if i >= len(wantLog) || gotLog[i] != wantLog[i] {
					t.Fatalf("issue %d diverges: bit walk %q, reference scan %q", i, gotLog[i], wantLog[i:])
				}
			}
			t.Fatalf("bit walk issued %d ops, reference scan %d", len(gotLog), len(wantLog))
		}
		if !reflect.DeepEqual(got.Stat, want.Stat) {
			t.Fatalf("stats diverge:\nbit walk  %+v\nreference %+v", got.Stat, want.Stat)
		}
	})
}

// The audit catches derived scheduling state that drifted from the flags.
func TestStaleWaveSetsAreInvariantViolations(t *testing.T) {
	rules := func(c *Core) []string {
		var r []string
		for _, v := range c.CheckInvariants() {
			r = append(r, v.Rule)
		}
		return r
	}
	c := newCore(3, []Op{{Kind: OpCompute, Latency: 1}})
	tick(c, 0, 1)
	if r := rules(c); len(r) != 0 {
		t.Fatalf("healthy core: %v", r)
	}
	c.issuable.clear(1) // a ready wavefront the issue stage would never visit
	if r := rules(c); !reflect.DeepEqual(r, []string{"stale-wave-set"}) {
		t.Fatalf("cleared issuable bit: %v", r)
	}
	c.issuable.set(1)
	c.pending.set(2) // an expansion walk over a wavefront with nothing pending
	if r := rules(c); !reflect.DeepEqual(r, []string{"stale-wave-set"}) {
		t.Fatalf("forged pending bit: %v", r)
	}
	c.pending.clear(2)
	c.pendZero++ // would keep expandPending scanning past a full LSQ forever
	if r := rules(c); !reflect.DeepEqual(r, []string{"pending-count"}) {
		t.Fatalf("forged pendZero: %v", r)
	}
}

// slowMemory drains two requests from a core's Out every period cycles — so
// the LSQ gets to inject on two successive edges, the second with nothing but
// its own occupancy to keep the core awake — and returns each reply lat
// cycles later: a memory system slow enough that the core spends most of its
// time backed up behind a full Out. A plain Ticker, so
// it ticks on every edge in either engine mode.
type slowMemory struct {
	c           *Core
	period, lat sim.Cycle
	pending     *sim.DelayQueue[*mem.Access]
}

func (m *slowMemory) Tick(now sim.Cycle) {
	for i := 0; i < 2 && now%m.period == 0; i++ {
		if a, ok := m.c.Out.Pop(); ok {
			m.pending.Push(a.Reply(), now+m.lat)
		}
	}
	for !m.c.In.Full() {
		r, ok := m.pending.PopReady(now)
		if !ok {
			break
		}
		m.c.In.Push(r)
	}
}

// A core backed up behind a full Out — LSQ occupied, expansion stopped at the
// full LSQ, issue asleep because every wavefront waits on memory — leaves the
// active set, and comes back for the edge after Out frees a slot or a reply
// lands. Its totals, every one of them, must be those of a core ticked on
// every cycle: Cycles and StallNoReady through SkipIdle, the rest because no
// skipped tick would have moved anything. The programs end well before the
// run does, so its tail is the LSQ draining with nothing left to expand: there
// the LSQ's own occupancy, against room in Out, is all that keeps the core
// awake between the memory's two pops.
func TestBlockedLSQSleepsToEagerTotals(t *testing.T) {
	const cycles = 6000
	run := func(fast bool) (Stats, int64) {
		e := sim.NewEngine()
		e.SetFastPath(fast)
		clk := e.NewClock("core", 1000)
		c := New(Params{LSQCap: 4, OutCap: 2, InCap: 4, MaxOutstanding: 16})
		for w := 0; w < 4; w++ {
			var ops []Op
			for i := 0; i < 12; i++ {
				base := uint64(w*1000 + i*8)
				ops = append(ops,
					Op{Kind: OpLoad, Lines: []uint64{base, base + 1, base + 2, base + 3, base + 4}, Bytes: 32, Blocking: i%2 == 0},
					Op{Kind: OpCompute, Latency: 3})
			}
			c.AddWave(&listProgram{ops: ops})
		}
		c.Out.Attach(clk)
		c.In.Attach(clk)
		clk.Register(c)
		clk.Register(&slowMemory{c: c, period: 32, lat: 40, pending: sim.NewDelayQueue[*mem.Access]()})
		e.RunUntil(clk, cycles)
		if v := c.CheckInvariants(); len(v) != 0 {
			t.Fatalf("fast=%v invariants: %v", fast, v)
		}
		return c.Stat, e.WalkStats()[0].Ticks - cycles // the memory ticks once an edge
	}
	want, eager := run(false)
	got, ticks := run(true)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sleeping core's totals differ from the eagerly ticked core's:\n got %+v\nwant %+v", got, want)
	}
	if want.Cycles != cycles || want.StallNoReady < cycles/2 || want.Transactions != 4*12*5 {
		t.Fatalf("the scenario is not the back-pressured one: %+v", want)
	}
	if eager != cycles || ticks > cycles/3 {
		t.Errorf("core ticked %d of %d cycles (eager engine: %d): it is not sleeping through the back-pressure", ticks, cycles, eager)
	}
}

package cache

import "testing"

// stalledLoad returns a controller whose head request, a load of line 9, is
// stalled for the one MSHR (held by line 1) on every cycle from `now` on.
func stalledLoad(t *testing.T) (c *Ctrl, now int64) {
	t.Helper()
	p := l1Params()
	p.MSHRs = 1
	c = New(p, 0, nil)
	c.In.Push(load(1))
	c.In.Push(load(9))
	now = run(c, 0, 2)
	if c.MSHRInUse() != 1 || c.In.Len() != 1 || c.Stat.MSHRStalls == 0 {
		t.Fatalf("setup: MSHRs in use %d, In %d, stalls %d", c.MSHRInUse(), c.In.Len(), c.Stat.MSHRStalls)
	}
	return c, now
}

// A stalled head load re-uses the memoised "neither resident nor in flight"
// verdict instead of probing again; the stall itself is still counted on
// every cycle it lasts.
func TestStalledLoadCountsEveryCycle(t *testing.T) {
	c, now := stalledLoad(t)
	before := c.Stat.MSHRStalls
	run(c, now, 25)
	if got := c.Stat.MSHRStalls - before; got != 25 {
		t.Fatalf("MSHRStalls advanced %d over 25 stalled cycles", got)
	}
	if c.Stat.Loads != 1 {
		t.Fatalf("the stalled load was counted as served: Loads = %d", c.Stat.Loads)
	}
	if v := c.CheckInvariants(); len(v) != 0 {
		t.Fatalf("invariants: %v", v)
	}
}

// A line installed between two stalled cycles must be seen by the next probe:
// Install advances the array generation, which drops the memo.
func TestStalledLoadHitsAfterInstall(t *testing.T) {
	c, now := stalledLoad(t)
	c.Arr.Install(9, false)
	run(c, now, 1)
	if c.Stat.LoadHits != 1 || c.In.Len() != 0 {
		t.Fatalf("load of a just-installed line: hits %d, In %d (memo not dropped)", c.Stat.LoadHits, c.In.Len())
	}
}

// An MSHR released between two stalled cycles (the fill for line 1 arrives)
// must let the stalled load allocate on that very tick, and an entry that
// appears for the stalled line itself must be merged into, not duplicated.
func TestStalledLoadProceedsAfterMSHRChange(t *testing.T) {
	c, now := stalledLoad(t)
	f, _ := c.MissOut.Pop()
	c.FillIn.Push(f.Reply())
	run(c, now, 1) // fills are processed before requests within the tick
	if c.Stat.LoadMisses != 2 || c.mshr.get(9) == nil || c.In.Len() != 0 {
		t.Fatalf("after the release: misses %d, entry for 9 %t, In %d",
			c.Stat.LoadMisses, c.mshr.get(9) != nil, c.In.Len())
	}

	c, now = stalledLoad(t)
	c.mshr.insert(9, now) // line 9 now in flight on behalf of someone else
	before := c.Stat.MSHRStalls
	run(c, now, 1)
	if c.Stat.MSHRMerges != 1 || c.MSHRInUse() != 2 || c.Stat.MSHRStalls != before {
		t.Fatalf("stalled load did not merge into the new entry: merges %d, MSHRs %d, stalls +%d",
			c.Stat.MSHRMerges, c.MSHRInUse(), c.Stat.MSHRStalls-before)
	}
}

// The audit catches a memo that outlived the state it summarises.
func TestStaleMissMemoIsAnInvariantViolation(t *testing.T) {
	c, _ := stalledLoad(t)
	c.Arr.Install(9, false)
	c.miss.arrGen = c.Arr.gen // forge: pretend the install never bumped the generation
	v := c.CheckInvariants()
	if len(v) != 1 || v[0].Rule != "stale-miss-memo" {
		t.Fatalf("violations = %v, want one stale-miss-memo", v)
	}
}

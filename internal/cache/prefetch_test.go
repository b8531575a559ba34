package cache

import (
	"testing"

	"dcl1sim/internal/mem"
)

func pfParams(next, stride int) Params {
	return Params{
		Name: "pf", Sets: 16, Ways: 4, HitLatency: 2,
		MSHRs: 16, MaxMerge: 4, Policy: WriteEvict,
		PrefetchNext: next, PrefetchStride: stride,
		MissCap: 16,
	}
}

func TestPrefetchIssuesOnMiss(t *testing.T) {
	c := New(pfParams(2, 1), 7, nil)
	c.In.Push(load(100))
	run(c, 0, 2)
	// Demand fetch + 2 prefetches.
	if c.MissOut.Len() != 3 {
		t.Fatalf("MissOut = %d, want demand + 2 prefetches", c.MissOut.Len())
	}
	if c.Stat.Prefetches != 2 {
		t.Fatalf("Prefetches = %d", c.Stat.Prefetches)
	}
	d, _ := c.MissOut.Pop()
	p1, _ := c.MissOut.Pop()
	p2, _ := c.MissOut.Pop()
	if d.Line != 100 || p1.Line != 101 || p2.Line != 102 {
		t.Fatalf("lines = %d %d %d", d.Line, p1.Line, p2.Line)
	}
	if p1.Core != PrefetchCore || p1.Node != 7 {
		t.Fatalf("prefetch identity wrong: %+v", p1)
	}
}

func TestPrefetchStride(t *testing.T) {
	c := New(pfParams(2, 4), 0, nil)
	c.In.Push(load(100))
	run(c, 0, 2)
	c.MissOut.Pop() // demand
	p1, _ := c.MissOut.Pop()
	p2, _ := c.MissOut.Pop()
	if p1.Line != 104 || p2.Line != 108 {
		t.Fatalf("stride-prefetch lines = %d %d, want 104 108", p1.Line, p2.Line)
	}
}

func TestPrefetchFillInstallsSilently(t *testing.T) {
	c := New(pfParams(1, 1), 3, nil)
	c.In.Push(load(50))
	run(c, 0, 2)
	d, _ := c.MissOut.Pop()
	pf, _ := c.MissOut.Pop()
	c.FillIn.Push(d.Reply())
	c.FillIn.Push(pf.Reply())
	run(c, 2, 6)
	// Only the demand load gets a reply.
	if c.Out.Len() != 1 {
		t.Fatalf("Out = %d, prefetch fill must not reply", c.Out.Len())
	}
	// But the prefetched line is resident: next access hits.
	if !c.Arr.Contains(51) {
		t.Fatal("prefetched line not installed")
	}
	c.In.Push(load(51))
	run(c, 8, 5)
	if c.Stat.LoadHits != 1 {
		t.Fatalf("prefetched line did not hit: %+v", c.Stat)
	}
	if c.MSHRInUse() != 0 {
		t.Fatal("prefetch leaked an MSHR")
	}
}

func TestPrefetchSkipsResidentAndPending(t *testing.T) {
	c := New(pfParams(2, 1), 0, nil)
	// Make 101 resident.
	c.In.Push(load(101))
	run(c, 0, 2)
	f, _ := c.MissOut.Pop()
	// Drain the prefetches 102,103 issued by that miss.
	for {
		if _, ok := c.MissOut.Pop(); !ok {
			break
		}
	}
	c.FillIn.Push(f.Reply())
	run(c, 2, 4)
	c.Out.Pop()
	before := c.Stat.Prefetches
	// Miss on 100: 101 is resident, 102 still pending in MSHR → only fetch
	// whatever is neither resident nor pending.
	c.In.Push(load(100))
	run(c, 6, 2)
	issued := c.Stat.Prefetches - before
	if issued != 0 {
		t.Fatalf("prefetcher re-fetched resident/pending lines: %d new", issued)
	}
}

func TestPrefetchNeverStallsDemand(t *testing.T) {
	p := pfParams(8, 1)
	p.MissCap = 2 // tiny miss queue: prefetches must yield
	c := New(p, 0, nil)
	c.In.Push(load(10))
	run(c, 0, 2)
	// Demand fetch made it out; prefetches were dropped when the queue filled.
	if c.MissOut.Len() != 2 {
		t.Fatalf("MissOut = %d", c.MissOut.Len())
	}
	d, _ := c.MissOut.Pop()
	if d.Line != 10 {
		t.Fatal("demand fetch must come first")
	}
}

func TestForeignPrefetchReplyForwarded(t *testing.T) {
	// A cache (e.g. the L2) serving a prefetch from another node must reply
	// normally — only the issuing cache swallows its own prefetch fills.
	c := New(Params{
		Name: "l2", Sets: 8, Ways: 2, HitLatency: 1,
		MSHRs: 8, MaxMerge: 4, Policy: WriteBack,
	}, 1000, nil)
	req := &mem.Access{Kind: mem.Load, Line: 9, ReqBytes: mem.LineBytes, Core: PrefetchCore, Node: 5}
	c.In.Push(req)
	run(c, 0, 2)
	f, _ := c.MissOut.Pop()
	c.FillIn.Push(f.Reply())
	run(c, 2, 5)
	r, ok := c.Out.Pop()
	if !ok || r.Core != PrefetchCore || r.Node != 5 {
		t.Fatalf("foreign prefetch reply not forwarded: %+v ok=%v", r, ok)
	}
}

package gpu

import (
	"testing"

	"dcl1sim/internal/sim"
	"dcl1sim/internal/trace"
	"dcl1sim/internal/workload"
)

// TestSystemDrainsCompletely is the end-to-end conservation check: with a
// finite trace, every issued transaction must eventually retire — no packet
// may be lost or duplicated anywhere in the cores, queues, NoCs, caches, or
// DRAM. After the cores finish and the machine drains, outstanding counts
// must reach zero in every design.
func TestSystemDrainsCompletely(t *testing.T) {
	src := workload.Spec{
		Name: "finite", Suite: "test",
		Waves: 4, ComputePerMem: 1, BlockEvery: 3,
		SharedLines: 60, SharedFrac: 0.6, SharedZipf: 0.4,
		PrivateLines: 50, CoalescedLines: 2,
		WriteFrac: 0.15, NonL1Frac: 0.05, AtomicFrac: 0.05,
	}
	tr := trace.Capture(src, 8, 120, workload.RoundRobin, 5)
	for name, d := range designs() {
		d := d
		t.Run(name, func(t *testing.T) {
			cfg := testCfg()
			s := NewSystem(cfg, d, tr)
			// Run until all wavefronts consumed their traces, then drain.
			deadline := sim.Cycle(400000)
			for s.CoreClk.Now() < deadline {
				s.Eng.RunUntil(s.CoreClk, s.CoreClk.Now()+2000)
				done := true
				for _, c := range s.Mods[0].Cores {
					if !c.Done() || c.OutstandingTotal() != 0 {
						done = false
						break
					}
				}
				if done {
					break
				}
			}
			for i, c := range s.Mods[0].Cores {
				if !c.Done() {
					t.Fatalf("core %d never finished its trace", i)
				}
				if n := c.OutstandingTotal(); n != 0 {
					t.Fatalf("core %d still has %d outstanding transactions: packets lost", i, n)
				}
			}
			// All node queues must be empty after the drain.
			for i, n := range s.Mods[0].Nodes {
				if n.Q1.Len()+n.Q2.Len()+n.Q3.Len()+n.Q4.Len() != 0 {
					t.Fatalf("node %d queues not drained", i)
				}
				if n.Ctrl.MSHRInUse() != 0 {
					t.Fatalf("node %d leaked %d MSHRs", i, n.Ctrl.MSHRInUse())
				}
			}
			for i, dc := range s.Mods[0].Drams {
				if dc.Pending() != 0 {
					t.Fatalf("dram %d still has pending requests", i)
				}
			}
		})
	}
}

// TestSystemDrainsWithPrefetch repeats the drain check with the prefetcher
// enabled (prefetch MSHRs must also retire).
func TestSystemDrainsWithPrefetch(t *testing.T) {
	src := workload.Spec{
		Name: "finite-pf", Suite: "test",
		Waves: 4, ComputePerMem: 1, SharedLines: 0, SharedFrac: 0,
		PrivateLines: 200, CoalescedLines: 1, WriteFrac: 0.1,
	}
	tr := trace.Capture(src, 8, 100, workload.RoundRobin, 9)
	cfg := testCfg()
	d := Design{Kind: Clustered, DCL1s: 4, Clusters: 2, PrefetchNext: 2}
	s := NewSystem(cfg, d, tr)
	for i := 0; i < 150; i++ {
		s.Eng.RunUntil(s.CoreClk, s.CoreClk.Now()+2000)
		allDone := true
		for _, c := range s.Mods[0].Cores {
			if !c.Done() || c.OutstandingTotal() != 0 {
				allDone = false
			}
		}
		var mshr int
		for _, n := range s.Mods[0].Nodes {
			mshr += n.Ctrl.MSHRInUse()
		}
		if allDone && mshr == 0 {
			return
		}
	}
	var mshr int
	for _, n := range s.Mods[0].Nodes {
		mshr += n.Ctrl.MSHRInUse()
	}
	t.Fatalf("machine with prefetching never drained (mshr=%d)", mshr)
}

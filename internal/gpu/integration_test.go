package gpu

import (
	"testing"

	"dcl1sim/internal/workload"
)

// mixedApp exercises every traffic kind: loads, stores, non-L1, atomics.
func mixedApp() workload.Spec {
	return workload.Spec{
		Name: "test-mixed", Suite: "test",
		Waves: 8, ComputePerMem: 1, BlockEvery: 4,
		SharedLines: 100, SharedFrac: 0.6, SharedZipf: 0.4,
		PrivateLines: 120, CoalescedLines: 1,
		WriteFrac: 0.2, NonL1Frac: 0.1, AtomicFrac: 0.05,
	}
}

func TestMixedTrafficAllDesigns(t *testing.T) {
	for name, d := range designs() {
		d := d
		t.Run(name, func(t *testing.T) {
			s := NewSystem(testCfg(), d, mixedApp())
			r := s.Run()
			if r.IPC <= 0 {
				t.Fatalf("no progress with mixed traffic")
			}
			// Atomics/non-L1 must never enter a DC-L1/L1 data cache; the
			// node bypass counters prove the path was exercised.
			var bypass int64
			for _, n := range s.Mods[0].Nodes {
				bypass += n.Stat.BypassRequests
			}
			if bypass == 0 {
				t.Fatal("non-L1/atomic traffic never bypassed the cache")
			}
			// Stores must be acknowledged (no monotonic outstanding build-up):
			// outstanding at end should be small relative to issued traffic.
			var out int
			for _, c := range s.Mods[0].Cores {
				out += c.OutstandingTotal()
			}
			var trans int64
			for _, c := range s.Mods[0].Cores {
				trans += c.Stat.Transactions
			}
			if int64(out) > trans/2 {
				t.Fatalf("outstanding=%d of %d transactions: replies leaking", out, trans)
			}
		})
	}
}

func TestClusterIsolation(t *testing.T) {
	// Under the clustered design, a core's requests must only ever reach
	// DC-L1 nodes of its own cluster. Violations would panic inside the
	// per-cluster crossbars (bad port index), so a clean run plus traffic on
	// every cluster's nodes is the invariant.
	cfg := testCfg()
	s := NewSystem(cfg, Design{Kind: Clustered, DCL1s: 4, Clusters: 2}, sharingApp())
	s.Run()
	for i, n := range s.Mods[0].Nodes {
		if n.Ctrl.Stat.Loads == 0 {
			t.Errorf("node %d received no traffic; home mapping broken", i)
		}
	}
}

func TestClusteredNoC2Alignment(t *testing.T) {
	// Fig 10 invariant: a DC-L1 with home index m only talks to L2 slices
	// with slice ≡ m (mod M). All four L2 slices must still see traffic.
	cfg := testCfg()
	s := NewSystem(cfg, Design{Kind: Clustered, DCL1s: 4, Clusters: 2}, sharingApp())
	s.Run()
	for i, l2 := range s.Mods[0].L2 {
		if l2.Stat.Loads == 0 {
			t.Errorf("L2 slice %d starved; clustered NoC#2 misrouted", i)
		}
	}
}

func TestCDXBarTwoStageDelivers(t *testing.T) {
	cfg := testCfg()
	s := NewSystem(cfg, Design{Kind: CDXBar, CDXGroups: 4, CDXMid: 2}, sharingApp())
	r := s.Run()
	if r.IPC <= 0 {
		t.Fatal("CDXBar made no progress")
	}
	// Both stages must carry traffic.
	var s1, s2 int64
	for _, x := range s.Mods[0].Stages[0].Req {
		s1 += x.Stat.FlitsMoved
	}
	for _, x := range s.Mods[0].Stages[1].Req {
		s2 += x.Stat.FlitsMoved
	}
	if s1 == 0 || s2 == 0 {
		t.Fatalf("stage flit counts: %d %d", s1, s2)
	}
	// CDXBar keeps private L1s: replication persists.
	if r.ReplicationRatio == 0 && r.L1MissRate > 0.05 {
		t.Error("CDXBar must not eliminate replication")
	}
}

func TestLargerMachineBuilds(t *testing.T) {
	// The 120-core sensitivity study shape (scaled down 1:10 for speed):
	// 12 cores, 6 DC-L1s, clusters of M=3... M must divide L2 slices, so use
	// cores=24, dcl1s=12, clusters=2 (M=6), l2=12, ch=6.
	cfg := Config{
		Cores: 24, L2Slices: 12, Channels: 6,
		L1KB: 4, L2KB: 32, WarmupCycles: 1000, MeasureCycles: 3000,
	}
	d := Design{Kind: Clustered, DCL1s: 12, Clusters: 2, Boost1: true}
	r := Run(cfg, d, sharingApp())
	if r.IPC <= 0 {
		t.Fatal("120-core-shaped machine made no progress")
	}
}

func TestSchedulerReducesReplication(t *testing.T) {
	// The distributed CTA scheduler converts part of the inter-core sharing
	// into core-local reuse, so baseline replication must drop.
	cfg := testCfg()
	app := sharingApp()
	rr := Run(cfg, Design{Kind: Baseline}, app)
	cfg2 := cfg
	cfg2.Sched = workload.Distributed
	dist := Run(cfg2, Design{Kind: Baseline}, app)
	if dist.ReplicationRatio >= rr.ReplicationRatio {
		t.Fatalf("distributed scheduler must reduce replication: %f vs %f",
			dist.ReplicationRatio, rr.ReplicationRatio)
	}
}

func TestL1LatencySweepMonotone(t *testing.T) {
	// Fig 19b mechanics: raising the L1 access latency cannot speed the
	// baseline up (tolerance for simulator noise: 2%).
	app := sharingApp()
	var last float64
	for i, lat := range []int64{-1, 28, 64} {
		cfg := testCfg()
		cfg.L1Lat = lat
		r := Run(cfg, Design{Kind: Baseline}, app)
		if i > 0 && r.IPC > last*1.02 {
			t.Fatalf("IPC rose with L1 latency: %f -> %f at lat=%d", last, r.IPC, lat)
		}
		last = r.IPC
	}
}

func TestFlitWidthKnob(t *testing.T) {
	// 2x flit width must reduce NoC flits for the same work.
	app := streamApp()
	cfg := testCfg()
	narrow := Run(cfg, Design{Kind: Baseline}, app)
	wide := Run(cfg, Design{Kind: Baseline, FlitBytes: 64}, app)
	nf := float64(narrow.Noc2Flits) / (narrow.IPC * float64(narrow.MeasuredCycles))
	wf := float64(wide.Noc2Flits) / (wide.IPC * float64(wide.MeasuredCycles))
	if wf >= nf {
		t.Fatalf("wider flits must cut flits/instr: %f vs %f", wf, nf)
	}
}

func TestRTTIncludesDecouplingOverhead(t *testing.T) {
	// With perfect caches everywhere, the decoupled design's RTT must exceed
	// the baseline's by the NoC#1 round trip (the paper's +54 cycles).
	app := sharingApp()
	cfg := testCfg()
	pb := Run(cfg, Design{Kind: Baseline, PerfectL1: true}, app)
	pd := Run(cfg, Design{Kind: Clustered, DCL1s: 4, Clusters: 2, PerfectL1: true}, app)
	if pd.MeanRTT <= pb.MeanRTT {
		t.Fatalf("decoupling must add latency: %f vs %f", pd.MeanRTT, pb.MeanRTT)
	}
	extra := pd.MeanRTT - pb.MeanRTT
	if extra < 5 || extra > 400 {
		t.Fatalf("core<->DC-L1 overhead = %f cycles, implausible", extra)
	}
}

func TestSeedChangesTraffic(t *testing.T) {
	cfg := testCfg()
	a := Run(cfg, Design{Kind: Baseline}, sharingApp())
	cfg2 := cfg
	cfg2.Seed = 99
	b := Run(cfg2, Design{Kind: Baseline}, sharingApp())
	if a.Noc2Flits == b.Noc2Flits && a.IPC == b.IPC {
		t.Fatal("seed had no effect on the workload")
	}
}

func TestWriteBackL1EndToEnd(t *testing.T) {
	// Write-heavy app with reuse: write-back L1s must retain written lines
	// (lower miss rate than write-evict) and stay deadlock-free.
	app := workload.Spec{
		Name: "test-wb", Suite: "test",
		Waves: 8, ComputePerMem: 1, BlockEvery: 3,
		SharedLines: 60, SharedFrac: 0.7, SharedZipf: 0.5,
		PrivateLines: 20, WriteFrac: 0.4,
	}
	cfg := testCfg()
	we := Run(cfg, Design{Kind: Clustered, DCL1s: 4, Clusters: 2}, app)
	wb := Run(cfg, Design{Kind: Clustered, DCL1s: 4, Clusters: 2, L1WriteBack: true}, app)
	if wb.IPC <= 0 {
		t.Fatal("write-back machine made no progress")
	}
	if wb.L1MissRate >= we.L1MissRate {
		t.Fatalf("write-back must retain written lines: miss %f vs %f", wb.L1MissRate, we.L1MissRate)
	}
	// Baseline with write-back L1s also works (orphan writeback ACKs dropped).
	b := Run(cfg, Design{Kind: Baseline, L1WriteBack: true}, app)
	if b.IPC <= 0 {
		t.Fatal("write-back baseline made no progress")
	}
}

package gpu

import (
	"testing"

	"dcl1sim/internal/workload"
)

// testCfg is a small 8-core machine so tests run in milliseconds.
func testCfg() Config {
	return Config{
		Cores: 8, L2Slices: 4, Channels: 2,
		L1KB:          4, // 32 lines per core
		L2KB:          32,
		WarmupCycles:  2000,
		MeasureCycles: 6000,
	}
}

// sharingApp has a shared footprint far bigger than one small L1 but smaller
// than the aggregate: the textbook replication-sensitive shape.
func sharingApp() workload.Spec {
	return workload.Spec{
		Name: "test-sharing", Suite: "test", Class: workload.ReplicationSensitive,
		Waves: 8, ComputePerMem: 1, BlockEvery: 3,
		SharedLines: 120, SharedFrac: 0.95, SharedZipf: 0.3,
		PrivateLines: 200, CoalescedLines: 1, WriteFrac: 0.05,
	}
}

// streamApp misses everywhere (capacity-insensitive).
func streamApp() workload.Spec {
	return workload.Spec{
		Name: "test-stream", Suite: "test", Class: workload.Insensitive,
		Waves: 8, ComputePerMem: 2,
		SharedLines: 0, SharedFrac: 0,
		PrivateLines: 5000, CoalescedLines: 1, WriteFrac: 0.1,
	}
}

func designs() map[string]Design {
	return map[string]Design{
		"baseline":  {Kind: Baseline},
		"pr4":       {Kind: Private, DCL1s: 4},
		"sh4":       {Kind: Shared, DCL1s: 4},
		"sh4c2":     {Kind: Clustered, DCL1s: 4, Clusters: 2},
		"sh4c2b":    {Kind: Clustered, DCL1s: 4, Clusters: 2, Boost1: true},
		"cdxbar":    {Kind: CDXBar, CDXGroups: 4, CDXMid: 2},
		"single-l1": {Kind: SingleL1},
		"mesh":      {Kind: MeshBase},
	}
}

func TestAllDesignsMakeProgress(t *testing.T) {
	for name, d := range designs() {
		d := d
		t.Run(name, func(t *testing.T) {
			r := Run(testCfg(), d, sharingApp())
			if r.IPC <= 0 {
				t.Fatalf("%s: IPC = %f, machine made no progress", name, r.IPC)
			}
			if r.L1MissRate < 0 || r.L1MissRate > 1 {
				t.Fatalf("%s: miss rate %f out of range", name, r.L1MissRate)
			}
			if r.MeanRTT <= 0 {
				t.Fatalf("%s: no load ever completed (RTT=0)", name)
			}
		})
	}
}

func TestSharedEliminatesReplication(t *testing.T) {
	cfg := testCfg()
	app := sharingApp()
	base := Run(cfg, Design{Kind: Baseline}, app)
	sh := Run(cfg, Design{Kind: Shared, DCL1s: 4}, app)
	if base.ReplicationRatio < 0.3 {
		t.Fatalf("baseline replication = %f, sharing app must replicate heavily", base.ReplicationRatio)
	}
	if sh.ReplicationRatio > 0.01 {
		t.Fatalf("Sh4 replication = %f, shared design must eliminate replication", sh.ReplicationRatio)
	}
	if sh.MeanReplicas > 1.05 {
		t.Fatalf("Sh4 replicas = %f, must be ~1", sh.MeanReplicas)
	}
	if sh.L1MissRate >= base.L1MissRate {
		t.Fatalf("Sh4 miss %f must beat baseline %f for a sharing app", sh.L1MissRate, base.L1MissRate)
	}
}

func TestAggregationReducesMissRate(t *testing.T) {
	cfg := testCfg()
	app := sharingApp()
	base := Run(cfg, Design{Kind: Baseline}, app)
	pr := Run(cfg, Design{Kind: Private, DCL1s: 2}, app) // aggressive aggregation
	if pr.L1MissRate >= base.L1MissRate {
		t.Fatalf("Pr2 miss %f must be below baseline %f", pr.L1MissRate, base.L1MissRate)
	}
	if pr.MeanReplicas >= base.MeanReplicas {
		t.Fatalf("Pr2 replicas %f must be below baseline %f", pr.MeanReplicas, base.MeanReplicas)
	}
}

func TestClusteredBetweenPrivateAndShared(t *testing.T) {
	cfg := testCfg()
	app := sharingApp()
	pr := Run(cfg, Design{Kind: Private, DCL1s: 4}, app)
	cl := Run(cfg, Design{Kind: Clustered, DCL1s: 4, Clusters: 2}, app)
	sh := Run(cfg, Design{Kind: Shared, DCL1s: 4}, app)
	if !(sh.MeanReplicas <= cl.MeanReplicas+0.05 && cl.MeanReplicas <= pr.MeanReplicas+0.05) {
		t.Fatalf("replica ordering violated: sh=%f cl=%f pr=%f",
			sh.MeanReplicas, cl.MeanReplicas, pr.MeanReplicas)
	}
	// Clustered caps replicas at the cluster count.
	if cl.MeanReplicas > 2.05 {
		t.Fatalf("C2 replicas = %f, cap is 2", cl.MeanReplicas)
	}
}

func TestCapacityScaleHelpsSharingApp(t *testing.T) {
	cfg := testCfg()
	app := sharingApp()
	base := Run(cfg, Design{Kind: Baseline}, app)
	big := Run(cfg, Design{Kind: Baseline, L1CapacityScale: 16}, app)
	if big.L1MissRate >= base.L1MissRate {
		t.Fatalf("16x L1 miss %f must beat baseline %f", big.L1MissRate, base.L1MissRate)
	}
	if big.IPC <= base.IPC {
		t.Fatalf("16x L1 IPC %f must beat baseline %f for a capacity-bound app", big.IPC, base.IPC)
	}
}

func TestPerfectL1NeverMisses(t *testing.T) {
	r := Run(testCfg(), Design{Kind: Private, DCL1s: 4, PerfectL1: true}, sharingApp())
	if r.L1MissRate != 0 {
		t.Fatalf("perfect DC-L1 missed: %f", r.L1MissRate)
	}
}

func TestStreamingAppInsensitiveToSharing(t *testing.T) {
	cfg := testCfg()
	app := streamApp()
	base := Run(cfg, Design{Kind: Baseline}, app)
	sh := Run(cfg, Design{Kind: Shared, DCL1s: 4}, app)
	// Streaming app has ~no replication to recover.
	if base.ReplicationRatio > 0.05 {
		t.Fatalf("stream app replication = %f, want ~0", base.ReplicationRatio)
	}
	// Misses dominate in both.
	if base.L1MissRate < 0.5 || sh.L1MissRate < 0.5 {
		t.Fatalf("stream app should miss heavily: %f %f", base.L1MissRate, sh.L1MissRate)
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := testCfg()
	d := Design{Kind: Clustered, DCL1s: 4, Clusters: 2}
	a := Run(cfg, d, sharingApp())
	b := Run(cfg, d, sharingApp())
	if a.IPC != b.IPC || a.L1MissRate != b.L1MissRate || a.Noc1Flits != b.Noc1Flits {
		t.Fatalf("runs diverge: %+v vs %+v", a, b)
	}
}

func TestTrafficReachesDram(t *testing.T) {
	r := Run(testCfg(), Design{Kind: Baseline}, streamApp())
	if r.DramReads == 0 {
		t.Fatal("streaming app never reached DRAM")
	}
	if r.L2MissRate <= 0 {
		t.Fatal("streaming app must miss in L2")
	}
}

func TestNoC1BoostHelpsUnderLoad(t *testing.T) {
	cfg := testCfg()
	// Bandwidth-hungry app: no compute padding, tiny footprint so every
	// access hits after warmup and the NoC#1 round trip is the bottleneck.
	app := workload.Spec{
		Name: "bw", Suite: "test", Waves: 16, ComputePerMem: 0, BlockEvery: 8,
		SharedLines: 0, SharedFrac: 0, PrivateLines: 1, CoalescedLines: 2,
	}
	slow := Run(cfg, Design{Kind: Clustered, DCL1s: 4, Clusters: 2}, app)
	fast := Run(cfg, Design{Kind: Clustered, DCL1s: 4, Clusters: 2, Boost1: true}, app)
	if fast.IPC <= slow.IPC {
		t.Fatalf("boost must help a bandwidth-bound app: %f vs %f", fast.IPC, slow.IPC)
	}
}

func TestDesignNames(t *testing.T) {
	cases := map[string]Design{
		"Baseline":        {Kind: Baseline},
		"Baseline+16xL1":  {Kind: Baseline, L1CapacityScale: 16},
		"Pr40":            {Kind: Private, DCL1s: 40},
		"Sh40":            {Kind: Shared, DCL1s: 40},
		"Sh40+C10":        {Kind: Clustered, DCL1s: 40, Clusters: 10},
		"Sh40+C10+Boost":  {Kind: Clustered, DCL1s: 40, Clusters: 10, Boost1: true},
		"CDXBar":          {Kind: CDXBar},
		"CDXBar+2xNoC":    {Kind: CDXBar, Boost1: true, Boost2: true},
		"CDXBar+2xNoC1":   {Kind: CDXBar, Boost1: true},
		"SingleL1":        {Kind: SingleL1},
		"Pr20+PerfectL1":  {Kind: Private, DCL1s: 20, PerfectL1: true},
		"Baseline+2xNoC":  {Kind: Baseline, Boost2: true},
		"Baseline+2xFlit": {Kind: Baseline, FlitBytes: 64},
	}
	for want, d := range cases {
		if got := d.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestSingleL1MatchesSharedSemantics(t *testing.T) {
	// SingleL1 keeps one copy of everything: replication ratio 0 and the
	// lowest possible miss rate for the sharing app.
	r := Run(testCfg(), Design{Kind: SingleL1}, sharingApp())
	if r.ReplicationRatio > 0.01 {
		t.Fatalf("SingleL1 replication = %f", r.ReplicationRatio)
	}
	base := Run(testCfg(), Design{Kind: Baseline}, sharingApp())
	if r.L1MissRate >= base.L1MissRate {
		t.Fatalf("SingleL1 miss %f must beat baseline %f", r.L1MissRate, base.L1MissRate)
	}
}

func TestPortUtilizationRises(t *testing.T) {
	cfg := testCfg()
	app := sharingApp()
	base := Run(cfg, Design{Kind: Baseline}, app)
	pr := Run(cfg, Design{Kind: Private, DCL1s: 2}, app)
	if pr.MaxL1PortUtil <= base.MaxL1PortUtil {
		t.Fatalf("aggregation must raise port utilization: %f vs %f",
			pr.MaxL1PortUtil, base.MaxL1PortUtil)
	}
	if len(base.L1PortUtil) != 8 || len(pr.L1PortUtil) != 2 {
		t.Fatalf("per-node utilization lengths: %d %d", len(base.L1PortUtil), len(pr.L1PortUtil))
	}
}

func TestValidatePanics(t *testing.T) {
	bad := []Design{
		{Kind: Private, DCL1s: 3},                // 8 % 3 != 0
		{Kind: Clustered, DCL1s: 4, Clusters: 3}, // 4 % 3 != 0
		{Kind: CDXBar, CDXGroups: 3, CDXMid: 2},  // 8 % 3 != 0
	}
	for i, d := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			NewSystem(testCfg(), d, sharingApp())
		}()
	}
}

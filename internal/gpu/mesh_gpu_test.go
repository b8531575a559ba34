package gpu

import (
	"testing"

	"dcl1sim/internal/trace"
	"dcl1sim/internal/workload"
)

func TestMeshBaseMakesProgress(t *testing.T) {
	r := Run(testCfg(), Design{Kind: MeshBase}, sharingApp())
	if r.IPC <= 0 {
		t.Fatalf("mesh machine made no progress: %+v", r.IPC)
	}
	if r.Noc2Flits == 0 {
		t.Fatal("no mesh traffic recorded")
	}
	// Private L1 semantics preserved: replication persists.
	if r.ReplicationRatio < 0.2 {
		t.Fatalf("MeshBase replication = %f, private L1s must replicate", r.ReplicationRatio)
	}
}

func TestMeshBaseDrains(t *testing.T) {
	src := workload.Spec{
		Name: "finite-mesh", Suite: "test",
		Waves: 4, ComputePerMem: 1, BlockEvery: 2,
		SharedLines: 40, SharedFrac: 0.5, SharedZipf: 0.3,
		PrivateLines: 30, CoalescedLines: 1, WriteFrac: 0.1,
	}
	tr := trace.Capture(src, 8, 80, workload.RoundRobin, 3)
	s := NewSystem(testCfg(), Design{Kind: MeshBase}, tr)
	for i := 0; i < 200; i++ {
		s.Eng.RunUntil(s.CoreClk, s.CoreClk.Now()+2000)
		done := true
		for _, c := range s.Mods[0].Cores {
			if !c.Done() || c.OutstandingTotal() != 0 {
				done = false
			}
		}
		if done {
			if st := s.Mods[0].Stages[0]; st.MeshReq.Pending()+st.MeshRep.Pending() > 0 {
				t.Fatal("mesh retained packets after drain")
			}
			return
		}
	}
	t.Fatal("mesh machine never drained")
}

func TestMeshShape(t *testing.T) {
	cases := map[int][2]int{
		12:  {4, 3},
		112: {11, 11}, // 80+32: 11x11=121 >= 112
		1:   {1, 1},
	}
	for nodes, want := range cases {
		w, h := meshShape(nodes)
		if w*h < nodes {
			t.Fatalf("meshShape(%d) = %dx%d too small", nodes, w, h)
		}
		if w != want[0] || h != want[1] {
			t.Fatalf("meshShape(%d) = %dx%d, want %dx%d", nodes, w, h, want[0], want[1])
		}
	}
}

func TestMeshBaseSlowerThanCrossbarOnLatency(t *testing.T) {
	// The mesh adds hop latency over the single-hop crossbar; with moderate
	// load the crossbar baseline should have a lower mean RTT.
	cfg := testCfg()
	xbar := Run(cfg, Design{Kind: Baseline}, sharingApp())
	mesh := Run(cfg, Design{Kind: MeshBase}, sharingApp())
	if mesh.MeanRTT <= xbar.MeanRTT*0.5 {
		t.Fatalf("mesh RTT %f implausibly below crossbar %f", mesh.MeanRTT, xbar.MeanRTT)
	}
}

package gpu

import (
	"testing"

	"dcl1sim/internal/workload"
)

// streamingSequential is the friendliest possible pattern for a next-line
// prefetcher: long sequential private streams.
func streamingSequential() workload.Spec {
	return workload.Spec{
		Name: "test-seq", Suite: "test",
		Waves: 8, ComputePerMem: 2, BlockEvery: 2,
		SharedLines: 0, SharedFrac: 0,
		PrivateLines: 4000, CoalescedLines: 1,
	}
}

func TestPrefetcherIssuesAndHelps(t *testing.T) {
	cfg := testCfg()
	app := streamingSequential()
	for name, base := range map[string]Design{
		"baseline": {Kind: Baseline},
		"sh4":      {Kind: Shared, DCL1s: 4},
		"sh4c2":    {Kind: Clustered, DCL1s: 4, Clusters: 2},
	} {
		base := base
		t.Run(name, func(t *testing.T) {
			plain := Run(cfg, base, app)
			pfd := base
			pfd.PrefetchNext = 2
			pf := Run(cfg, pfd, app)
			if pf.L1MissRate >= plain.L1MissRate {
				t.Fatalf("prefetch must cut the miss rate on sequential streams: %.3f vs %.3f",
					pf.L1MissRate, plain.L1MissRate)
			}
		})
	}
}

func TestPrefetchCounterAdvances(t *testing.T) {
	cfg := testCfg()
	d := Design{Kind: Shared, DCL1s: 4, PrefetchNext: 2}
	s := NewSystem(cfg, d, streamingSequential())
	s.Run()
	var pf int64
	for _, n := range s.Mods[0].Nodes {
		pf += n.Ctrl.Stat.Prefetches
	}
	if pf == 0 {
		t.Fatal("prefetcher never fired")
	}
}

func TestPrefetchOffByDefault(t *testing.T) {
	s := NewSystem(testCfg(), Design{Kind: Baseline}, streamingSequential())
	s.Run()
	for _, n := range s.Mods[0].Nodes {
		if n.Ctrl.Stat.Prefetches != 0 {
			t.Fatal("prefetches issued without the knob")
		}
	}
}

func TestPrefetchRepliesNeverReachCores(t *testing.T) {
	// Prefetch fills must install silently: cores' reply counts must match
	// their own transactions, so no core ends with negative outstanding or
	// spurious replies (which would corrupt wavefront accounting and panic
	// or stall; a clean deterministic run is the invariant).
	cfg := testCfg()
	d := Design{Kind: Clustered, DCL1s: 4, Clusters: 2, PrefetchNext: 4}
	a := Run(cfg, d, streamingSequential())
	b := Run(cfg, d, streamingSequential())
	if a.IPC != b.IPC {
		t.Fatal("prefetch-enabled runs must stay deterministic")
	}
	if a.IPC <= 0 {
		t.Fatal("no progress with prefetching enabled")
	}
}

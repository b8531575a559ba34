package dcl1_test

// Before/after benchmarks for the engine's quiescence fast path. Each pair
// runs the identical simulation with the fast path on (default) and off
// (WithLegacyTick) and reports ns/sim-cycle — wall-clock nanoseconds per
// simulated core cycle. The drain benchmark is the idle-heavy case the bulk
// fast-forward exists for: a finite trace whose programs end long before the
// measurement window closes. The ratio on the paper's machine is
// sim.legacy_tick_ratio of `bash bench/run.sh -trace 1`.

import (
	"testing"

	"dcl1sim"
)

// benchQuiesce runs the workload b.N times and reports ns per simulated core
// cycle. Results are checked non-degenerate once so a silently broken run
// can't report a flattering number.
func benchQuiesce(b *testing.B, cfg dcl1.Config, d dcl1.Design, w dcl1.Workload, legacy bool) {
	b.Helper()
	var opts []dcl1.RunOption
	if legacy {
		opts = append(opts, dcl1.WithLegacyTick())
	}
	simCycles := cfg.WarmupCycles + cfg.MeasureCycles
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := dcl1.Run(cfg, d, w, opts...)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && r.MeasuredCycles != cfg.MeasureCycles {
			b.Fatalf("measured %d cycles, want %d", r.MeasuredCycles, cfg.MeasureCycles)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(simCycles)*int64(b.N)), "ns/sim-cycle")
}

// BenchmarkQuiescenceDrain replays a finite trace through a 20x longer
// measurement window: after the programs retire, the machine is fully
// quiescent and the fast path bulk-skips to the end of the window.
func BenchmarkQuiescenceDrain(b *testing.B) {
	app, _ := dcl1.AppByName("T-AlexNet")
	tr := dcl1.CaptureTrace(app, 16, 40, dcl1.RoundRobin, 1)
	cfg := smallCfg()
	cfg.WarmupCycles, cfg.MeasureCycles = 1200, 60000
	d := dcl1.Design{Kind: dcl1.Clustered, DCL1s: 8, Clusters: 2}
	b.Run("fast", func(b *testing.B) { benchQuiesce(b, cfg, d, tr, false) })
	b.Run("legacy", func(b *testing.B) { benchQuiesce(b, cfg, d, tr, true) })
}

// BenchmarkQuiescenceSynthetic runs an always-busy synthetic workload — the
// fast path's worst case, pinning its per-edge overhead near zero.
func BenchmarkQuiescenceSynthetic(b *testing.B) {
	app, _ := dcl1.AppByName("C-BFS")
	cfg := smallCfg()
	d := dcl1.Design{Kind: dcl1.Clustered, DCL1s: 8, Clusters: 2}
	b.Run("fast", func(b *testing.B) { benchQuiesce(b, cfg, d, app, false) })
	b.Run("legacy", func(b *testing.B) { benchQuiesce(b, cfg, d, app, true) })
}

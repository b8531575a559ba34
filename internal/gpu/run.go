package gpu

import (
	"dcl1sim/internal/sim"
	"dcl1sim/internal/workload"
)

// Results of one run (one app × one design), measured over the post-warmup
// window.
type Results struct {
	Design string
	App    string

	MeasuredCycles sim.Cycle // core cycles
	Seconds        float64   // simulated wall-clock of the window

	IPC              float64 // wavefront instructions per core cycle, all cores
	L1MissRate       float64 // aggregate load miss rate across L1/DC-L1 nodes
	ReplicationRatio float64 // replicated misses / total misses
	MeanReplicas     float64 // copies per line, sampled at install
	MaxL1PortUtil    float64 // max per-node data-port utilization
	MaxReplyLinkUtil float64 // max reply-network output-link utilization
	MeanRTT          float64 // mean load round-trip, core cycles
	P50RTT           int64   // median load round-trip upper bound (log2 buckets)
	P99RTT           int64   // 99th-percentile load round-trip upper bound
	L2MissRate       float64
	DramReads        int64
	DramWrites       int64

	Noc1Flits int64
	Noc2Flits int64

	// FaultsInjected counts chaos fault occurrences across all injectors,
	// cumulative over warmup plus measurement (0 without fault injection).
	FaultsInjected int64

	// Per-node port utilizations (ascending node id), for Fig 17.
	L1PortUtil []float64

	// Multi-GPU machine figures, present only when the design builds two or
	// more linked modules (omitted from JSON on single-module runs, keeping
	// their output byte-identical to the pre-module simulator).
	Modules     int       `json:",omitempty"` // module count of the machine
	ModuleIPC   []float64 `json:",omitempty"` // per-module IPC (ascending module id)
	LinkFlits   int64     `json:",omitempty"` // flits moved on the inter-module link, both directions
	MaxLinkUtil float64   `json:",omitempty"` // max link reply-direction output utilization
}

// Run executes the app on the design and returns measurements.
func Run(cfg Config, d Design, app workload.Source) Results {
	return NewSystem(cfg, d, app).Run()
}

// Run executes this machine's warmup and measurement windows.
func (s *System) Run() Results {
	cycles, _ := s.measure(func(until sim.Cycle) error {
		s.Eng.RunUntil(s.CoreClk, until)
		return nil
	})
	return s.collect(cycles)
}

// measure is the one run body: advance through the warmup window, zero the
// statistics, advance through the measurement window, flush telemetry. It
// returns the core cycles measured. advance runs the engine until the core
// clock reaches its argument — plainly for Run, under the watchdog for
// RunChecked — and its first error aborts the run.
func (s *System) measure(advance func(until sim.Cycle) error) (sim.Cycle, error) {
	cfg := s.Cfg
	if err := advance(cfg.WarmupCycles); err != nil {
		return 0, err
	}
	s.resetStats()
	start := s.CoreClk.Now()
	if err := advance(cfg.WarmupCycles + cfg.MeasureCycles); err != nil {
		return 0, err
	}
	s.flushTelemetry()
	return s.CoreClk.Now() - start, nil
}

// resetStats zeroes the statistics of every component at the warmup boundary,
// then each module's replica samples, and re-baselines its power meter: the
// counters its zone terms read were just zeroed, and a window spanning the
// reset would see negative deltas.
func (s *System) resetStats() {
	for _, clk := range s.Eng.Clocks() {
		for _, c := range components(clk) {
			c.ResetStats()
		}
	}
	for _, mod := range s.Mods {
		mod.Tracker.SampledReplicaSum = 0
		mod.Tracker.SampledReplicaCount = 0
		mod.meter.Rebase()
	}
}

// collect builds Results as a view over the metric registry, which every
// module shares: every figure is derived from registered series, so the
// end-of-run summary and the live stream can never disagree. Every figure
// but one is a sum, a maximum or a merged histogram, which registration order
// cannot move; L1PortUtil lists the nodes in registration order, which is
// node order, module by module.
func (s *System) collect(cycles sim.Cycle) Results {
	r := Results{
		Design:         s.D.Name(),
		App:            s.App.Label(),
		MeasuredCycles: cycles,
		Seconds:        float64(cycles) / (float64(coreMHz) * 1e6),
	}
	reg := s.Reg
	r.IPC = float64(reg.Total("core_instructions_total")) / float64(cycles)
	rtt := reg.MergedHistogram("core_load_rtt_cycles")
	if rtt.Count() > 0 {
		r.MeanRTT = float64(rtt.Sum()) / float64(rtt.Count())
		r.P50RTT = rtt.Percentile(50)
		r.P99RTT = rtt.Percentile(99)
	}

	for _, acc := range reg.Ints("l1_accesses_total") {
		u := float64(acc) / float64(cycles)
		r.L1PortUtil = append(r.L1PortUtil, u)
		if u > r.MaxL1PortUtil {
			r.MaxL1PortUtil = u
		}
	}
	loads := reg.Total("l1_loads_total")
	misses := reg.Total("l1_load_misses_total")
	if loads > 0 {
		r.L1MissRate = float64(misses) / float64(loads)
	}
	if misses > 0 {
		r.ReplicationRatio = float64(reg.Total("l1_replicated_misses_total")) / float64(misses)
	}
	var repSum, repCount int64
	for _, mod := range s.Mods {
		repSum += mod.Tracker.SampledReplicaSum
		repCount += mod.Tracker.SampledReplicaCount
	}
	if repCount > 0 {
		r.MeanReplicas = float64(repSum) / float64(repCount)
	}

	if l2loads := reg.Total("l2_loads_total"); l2loads > 0 {
		r.L2MissRate = float64(reg.Total("l2_load_misses_total")) / float64(l2loads)
	}
	r.DramReads = reg.Total("dram_reads_total")
	r.DramWrites = reg.Total("dram_writes_total")

	r.Noc1Flits = reg.Total("noc1_flits_total")
	r.Noc2Flits = reg.Total("noc2_flits_total")
	// The paper's reply-link utilization figure reads the network that ships
	// L2 replies: NoC#2 for the single-network designs (Baseline, CDXBar),
	// NoC#1 for the decoupled ones. The mesh design has no reply crossbars,
	// so both families are empty there and the figure stays 0.
	if s.D.Kind == Baseline || s.D.Kind == CDXBar {
		r.MaxReplyLinkUtil = reg.GaugeMax("noc2_reply_link_util_max")
	} else {
		r.MaxReplyLinkUtil = reg.GaugeMax("noc1_reply_link_util_max")
	}
	r.FaultsInjected = reg.Total("chaos_faults_total")

	if len(s.Mods) > 1 {
		r.Modules = len(s.Mods)
		for _, mod := range s.Mods {
			var issued int64
			for _, c := range mod.Cores {
				issued += c.Stat.Issued
			}
			r.ModuleIPC = append(r.ModuleIPC, float64(issued)/float64(cycles))
		}
		r.LinkFlits = reg.Total("link_flits_total")
		r.MaxLinkUtil = reg.GaugeMax("link_reply_link_util_max")
	}
	return r
}

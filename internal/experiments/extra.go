package experiments

import (
	"fmt"
	"math"

	"dcl1sim/internal/gpu"
	"dcl1sim/internal/power"
	"dcl1sim/internal/sim"
	"dcl1sim/internal/stats"
	"dcl1sim/internal/workload"
)

func init() {
	register(Experiment{
		ID:     "fig18a",
		Title:  "Fig 18a: NoC power and energy of Sh40+C10+Boost vs baseline",
		Paper:  "Static -16%, dynamic +20%, total -2%, energy -35%, perf/W +29.5%",
		Run:    runFig18a,
		Claims: fig18aClaims,
	})
	register(Experiment{
		ID:     "lat",
		Title:  "Section VIII latency analysis",
		Paper:  "+54 cycles core<->DC-L1, 30 vs 28-cycle access, round trip -53%",
		Run:    runLat,
		Claims: latClaims,
	})
	register(Experiment{
		ID:     "fig19a",
		Title:  "Fig 19a: hierarchical crossbar (CDXBar) comparison",
		Paper:  "CDXBar -14%/-7% (sens/insens); +2xNoC +29% sens, still 26% below ours",
		Run:    runFig19a,
		Claims: fig19aClaims,
	})
	register(Experiment{
		ID:    "fig19b",
		Title: "Fig 19b: L1 access latency sensitivity (0..64 cycles)",
		Paper: "+66% for sensitive apps even at zero latency; insensitive <1% drop",
		Run:   runFig19b,
	})
	register(Experiment{
		ID:     "cta",
		Title:  "Section VIII-A: distributed CTA scheduler sensitivity",
		Paper:  "+46% for sensitive apps under the distributed scheduler (vs +75% under RR)",
		Run:    runCTA,
		Claims: ctaClaims,
	})
	register(Experiment{
		ID:    "size",
		Title: "Section VIII-A: 120-core system (Sh60+C10+Boost)",
		Paper: "+67% for sensitive apps; insensitive apps maintained",
		Run:   runSize,
	})
	register(Experiment{
		ID:     "boostbase",
		Title:  "Section VIII-A: boosted baselines (2x L1 / 2x NoC freq / 2x flit)",
		Paper:  "Boosted baselines gain 33-36%, 22% below Sh40+C10+Boost's 75%",
		Run:    runBoostBase,
		Claims: boostbaseClaims,
	})
}

func runFig18a(ctx *Context) *Table {
	t := &Table{
		ID:      "fig18a",
		Title:   "NoC power and energy, Sh40+C10+Boost normalized to baseline",
		Columns: []string{"ratio"},
	}
	baseSpec := gpu.DesignNoCSpec(ctx.Base, ctx.design("Baseline"))
	oursSpec := gpu.DesignNoCSpec(ctx.Base, ctx.design("Sh40+C10+Boost"))
	var bStat, oStat = baseSpec.StaticPower(), oursSpec.StaticPower()
	var bDyn, oDyn, bIPC, oIPC float64
	for _, app := range workload.Sensitive() {
		b := ctx.runDefault(ctx.design("Baseline"), app)
		o := ctx.runDefault(ctx.design("Sh40+C10+Boost"), app)
		// Baseline spec has one crossbar group (all traffic); ours has two.
		bDyn += baseSpec.DynamicPower([]int64{b.Noc2Flits}, b.Seconds)
		oDyn += oursSpec.DynamicPower([]int64{o.Noc1Flits, o.Noc2Flits}, o.Seconds)
		bIPC += b.IPC
		oIPC += o.IPC
	}
	n := float64(len(workload.Sensitive()))
	bDyn /= n
	oDyn /= n
	staticRatio := oStat / bStat
	dynRatio := oDyn / bDyn
	totalRatio := power.TotalPowerRatio(staticRatio, dynRatio)
	// Fixed work: runtime scales as 1/IPC, so energy ratio = power ratio x
	// (baseline IPC / our IPC).
	speed := oIPC / bIPC
	energyRatio := totalRatio / speed
	t.Rows = append(t.Rows,
		Row{Label: "static power", Cells: []float64{staticRatio}},
		Row{Label: "dynamic power", Cells: []float64{dynRatio}},
		Row{Label: "total power", Cells: []float64{totalRatio}},
		Row{Label: "energy", Cells: []float64{energyRatio}},
		Row{Label: "perf-per-watt", Cells: []float64{speed / totalRatio}},
		Row{Label: "perf-per-energy", Cells: []float64{speed / energyRatio}},
	)
	t.Notes = append(t.Notes, "paper: static 0.84, dynamic 1.20, perf/W 1.295, perf/energy 1.95")
	return t
}

// fig18aTotal sits around the paper's total NoC power; fig18aEnergy
// brackets our energy saving, larger than the paper's in proportion to our
// larger speedup (known deviation 5).
var (
	fig18aTotal  = band{0.93, 1.03, "0.98"}
	fig18aEnergy = band{0.40, 0.50, "0.65"}
)

var fig18aClaims = []Claim{
	cellsIn("fig18a/total-power", false, "ratio", fig18aTotal, "total power"),
	cellsIn("fig18a/energy-gap", false, "ratio", fig18aEnergy, "energy"),
}

func runLat(ctx *Context) *Table {
	t := &Table{
		ID:      "lat",
		Title:   "Latency analysis (replication-sensitive apps)",
		Columns: []string{"value"},
	}
	var bRTT, oRTT []float64
	for _, app := range workload.Sensitive() {
		b := ctx.runDefault(ctx.design("Baseline"), app)
		o := ctx.runDefault(ctx.design("Sh40+C10+Boost"), app)
		bRTT = append(bRTT, b.MeanRTT)
		oRTT = append(oRTT, o.MeanRTT)
	}
	// The pure core<->DC-L1 hop overhead: a quiet loads-only probe (no
	// stores, low intensity, perfect caches) so queueing and memory-system
	// time cannot pollute the comparison.
	probe := workload.Spec{
		Name: "lat-probe", Suite: "probe",
		Waves: 2, ComputePerMem: 6, BlockEvery: 1,
		SharedLines: 0, SharedFrac: 0, PrivateLines: 8,
		CoalescedLines: 1,
	}
	perfBase := ctx.runDefault(ctx.design("Baseline+PerfectL1"), probe)
	perfOurs := ctx.runDefault(ctx.design("Sh40+C10+Boost+PerfectL1"), probe)
	hop := perfOurs.MeanRTT - perfBase.MeanRTT
	base32 := power.CacheAccessLatency(32*1024, 28)
	dc64 := power.CacheAccessLatency(64*1024, 28)
	t.Rows = append(t.Rows,
		Row{Label: "core<->DC-L1 overhead (cyc)", Cells: []float64{hop}},
		Row{Label: "L1 32KB access (cyc)", Cells: []float64{float64(base32)}},
		Row{Label: "DC-L1 64KB access (cyc)", Cells: []float64{float64(dc64)}},
		Row{Label: "mean RTT ratio", Cells: []float64{stats.Mean(oRTT) / stats.Mean(bRTT)}},
	)
	t.Notes = append(t.Notes, "paper: 28->30 cycle access, RTT -53%")
	return t
}

// latHopGap brackets the quiet probe's core<->DC-L1 hop overhead: our
// boosted NoC#1 with shallow queues is cheaper than the authors'.
var latHopGap = band{9, 14, "54"}

var latClaims = []Claim{
	cellsIn("lat/hop-overhead-gap", false, "value", latHopGap, "core<->DC-L1 overhead (cyc)"),
}

func runFig19a(ctx *Context) *Table {
	t := &Table{
		ID:      "fig19a",
		Title:   "CDXBar designs vs Sh40+C10+Boost (IPC vs baseline, class means)",
		Columns: []string{"sensitive", "insensitive"},
	}
	for _, name := range []string{"CDXBar", "CDXBar+2xNoC1", "CDXBar+2xNoC", "Sh40+C10+Boost"} {
		d := ctx.design(name)
		sens, _ := ctx.gain(ctx.Base, d, workload.Sensitive())
		insens, _ := ctx.gain(ctx.Base, d, workload.InsensitiveApps())
		t.Rows = append(t.Rows, Row{Label: name, Cells: []float64{sens, insens}})
	}
	t.Notes = append(t.Notes, "paper insensitive: CDXBar 0.93, CDXBar+2xNoC 1.05")
	return t
}

// fig19aStage1 is how little boosting only CDXBar's first stage may move
// its sensitive-app IPC; fig19aInsensitiveGap brackets our design's gain on
// the insensitive apps, which the paper's hold level (known deviation 3).
const fig19aStage1 = 0.02

var fig19aInsensitiveGap = band{1.10, 1.22, "0.99"}

var fig19aClaims = []Claim{
	{Name: "fig19a/stage1-boost-futile", Check: func(t *Table) (bool, string) {
		a, b := t.Cell("CDXBar", "sensitive"), t.Cell("CDXBar+2xNoC1", "sensitive")
		return math.Abs(b-a) <= fig19aStage1, fmt.Sprintf("CDXBar+2xNoC1 %.3f within %.2f of CDXBar %.3f (paper: no change)", b, fig19aStage1, a)
	}},
	{Name: "fig19a/ours-best", Check: func(t *Table) (bool, string) {
		ok, reading := descending(t.Cell("Sh40+C10+Boost", "sensitive"), t.Cell("CDXBar+2xNoC", "sensitive"),
			t.Cell("CDXBar", "sensitive"))
		return ok, "sensitive, ours > CDXBar+2xNoC > CDXBar: " + reading + " (paper 1.75 > 1.29 > 0.86)"
	}},
	cellsIn("fig19a/insensitive-gap", false, "insensitive", fig19aInsensitiveGap, "Sh40+C10+Boost"),
}

func runFig19b(ctx *Context) *Table {
	t := &Table{
		ID:      "fig19b",
		Title:   "L1 access-latency sweep (sensitive-app IPC vs matching baseline)",
		Columns: []string{"IPC ratio"},
	}
	for _, lat := range []sim.Cycle{-1, 16, 28, 48, 64} { // -1 means 0 cycles
		cfg := ctx.Base
		cfg.L1Lat = lat
		label := fmt.Sprintf("lat=%d", lat)
		if lat == -1 {
			label = "lat=0"
		}
		speed, _ := ctx.gain(cfg, ctx.design("Sh40+C10+Boost"), workload.Sensitive())
		t.Rows = append(t.Rows, Row{Label: label, Cells: []float64{speed}})
	}
	t.Notes = append(t.Notes, "paper: +66% at zero latency, rising with latency; insensitive apps <1% drop throughout")
	return t
}

func runCTA(ctx *Context) *Table {
	t := &Table{
		ID:      "cta",
		Title:   "CTA scheduler sensitivity (sensitive-app speedup of Sh40+C10+Boost)",
		Columns: []string{"IPC ratio"},
	}
	for _, sched := range []workload.Sched{workload.RoundRobin, workload.Distributed} {
		cfg := ctx.Base
		cfg.Sched = sched
		speed, _ := ctx.gain(cfg, ctx.design("Sh40+C10+Boost"), workload.Sensitive())
		label := "round-robin"
		if sched == workload.Distributed {
			label = "distributed"
		}
		t.Rows = append(t.Rows, Row{Label: label, Cells: []float64{speed}})
	}
	return t
}

var ctaClaims = []Claim{
	{Name: "cta/distributed-smaller", Check: func(t *Table) (bool, string) {
		ok, reading := descending(t.Cell("round-robin", "IPC ratio"), t.Cell("distributed", "IPC ratio"), 1)
		return ok, "round-robin > distributed > 1: " + reading + " (paper 1.75 > 1.46 > 1)"
	}},
}

func runSize(ctx *Context) *Table {
	t := &Table{
		ID:      "size",
		Title:   "120-core system: Sh60+C10+Boost vs its baseline",
		Columns: []string{"sensitive", "insensitive"},
	}
	cfg := ctx.Base
	cfg.Cores = ctx.Base.Cores * 3 / 2
	cfg.L2Slices = ctx.Base.L2Slices * 3 / 2
	cfg.Channels = ctx.Base.Channels * 3 / 2
	// Sh60+C10 on the 120-core machine: 60 DC-L1s, clusters of M=6 nodes
	// (6 divides the 48 L2 slices).
	d := gpu.Design{
		Kind:     gpu.Clustered,
		DCL1s:    cfg.Cores / 2,
		Clusters: max(1, cfg.Cores/2/6),
		Boost1:   true,
	}
	sens, _ := ctx.gain(cfg, d, workload.Sensitive())
	insens, _ := ctx.gain(cfg, d, workload.InsensitiveApps())
	t.Rows = append(t.Rows, Row{Label: d.Name(), Cells: []float64{sens, insens}})
	t.Notes = append(t.Notes, "paper: +67% sensitive, insensitive maintained")
	return t
}

func runBoostBase(ctx *Context) *Table {
	t := &Table{
		ID:      "boostbase",
		Title:   "Boosted baselines on sensitive apps (IPC vs plain baseline)",
		Columns: []string{"IPC ratio"},
	}
	for _, name := range []string{"Baseline+2xL1", "Baseline+2xNoC", "Baseline+2xFlit", "Sh40+C10+Boost"} {
		speed, _ := ctx.gain(ctx.Base, ctx.design(name), workload.Sensitive())
		t.Rows = append(t.Rows, Row{Label: name, Cells: []float64{speed}})
	}
	t.Notes = append(t.Notes,
		"paper: 2x-L1 costs +84% cache area; the 80x32 crossbar cannot physically run 2x frequency (fig13b)")
	return t
}

var boostbaseClaims = []Claim{
	{Name: "boostbase/ours-best", Check: func(t *Table) (bool, string) {
		rival := math.Inf(-1)
		for _, r := range rowLabels(t, "Sh40+C10+Boost") {
			rival = max(rival, t.Cell(r, "IPC ratio"))
		}
		ok, reading := descending(t.Cell("Sh40+C10+Boost", "IPC ratio"), rival)
		return ok, "ours > best boosted baseline: " + reading + " (paper 1.75 > 1.36)"
	}},
}

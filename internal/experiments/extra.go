package experiments

import (
	"fmt"

	"dcl1sim/internal/gpu"
	"dcl1sim/internal/power"
	"dcl1sim/internal/sim"
	"dcl1sim/internal/stats"
	"dcl1sim/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig18a",
		Title: "Fig 18a: NoC power and energy of Sh40+C10+Boost vs baseline",
		Paper: "Static -16%, dynamic +20%, total -2%, energy -35%, perf/W +29.5%",
		Run:   runFig18a,
	})
	register(Experiment{
		ID:    "lat",
		Title: "Section VIII latency analysis",
		Paper: "+54 cycles core<->DC-L1, 30 vs 28-cycle access, round trip -53%",
		Run:   runLat,
	})
	register(Experiment{
		ID:    "fig19a",
		Title: "Fig 19a: hierarchical crossbar (CDXBar) comparison",
		Paper: "CDXBar -14%/-7% (sens/insens); +2xNoC +29% sens, still 26% below ours",
		Run:   runFig19a,
	})
	register(Experiment{
		ID:    "fig19b",
		Title: "Fig 19b: L1 access latency sensitivity (0..64 cycles)",
		Paper: "+66% for sensitive apps even at zero latency; insensitive <1% drop",
		Run:   runFig19b,
	})
	register(Experiment{
		ID:    "cta",
		Title: "Section VIII-A: distributed CTA scheduler sensitivity",
		Paper: "+46% for sensitive apps under the distributed scheduler (vs +75% under RR)",
		Run:   runCTA,
	})
	register(Experiment{
		ID:    "size",
		Title: "Section VIII-A: 120-core system (Sh60+C10+Boost)",
		Paper: "+67% for sensitive apps; insensitive apps maintained",
		Run:   runSize,
	})
	register(Experiment{
		ID:    "boostbase",
		Title: "Section VIII-A: boosted baselines (2x L1 / 2x NoC freq / 2x flit)",
		Paper: "Boosted baselines gain 33-36%, 22% below Sh40+C10+Boost's 75%",
		Run:   runBoostBase,
	})
}

func runFig18a(ctx *Context) *Table {
	t := &Table{
		ID:      "fig18a",
		Title:   "NoC power and energy, Sh40+C10+Boost normalized to baseline",
		Columns: []string{"ratio"},
	}
	baseSpec := gpu.DesignNoCSpec(ctx.Base, base())
	oursSpec := gpu.DesignNoCSpec(ctx.Base, ctx.scaledDesign(boost()))
	var bStat, oStat = baseSpec.StaticPower(), oursSpec.StaticPower()
	var bDyn, oDyn, bIPC, oIPC float64
	for _, app := range workload.Sensitive() {
		b := ctx.runDefault(base(), app)
		o := ctx.runDefault(ctx.scaledDesign(boost()), app)
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
	t.Notes = append(t.Notes, "paper: static 0.84, dynamic 1.20, total 0.98, energy 0.65, perf/W 1.295, perf/energy 1.95")
	return t
}

func runLat(ctx *Context) *Table {
	t := &Table{
		ID:      "lat",
		Title:   "Latency analysis (replication-sensitive apps)",
		Columns: []string{"value"},
	}
	var bRTT, oRTT []float64
	for _, app := range workload.Sensitive() {
		b := ctx.runDefault(base(), app)
		o := ctx.runDefault(ctx.scaledDesign(boost()), app)
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
	perfBase := ctx.runDefault(gpu.Design{Kind: gpu.Baseline, PerfectL1: true}, probe)
	perfOurs := ctx.runDefault(ctx.scaledDesign(gpu.Design{
		Kind: gpu.Clustered, DCL1s: 40, Clusters: 10, Boost1: true, PerfectL1: true}), probe)
	hop := perfOurs.MeanRTT - perfBase.MeanRTT
	base32 := power.CacheAccessLatency(32*1024, 28)
	dc64 := power.CacheAccessLatency(64*1024, 28)
	t.Rows = append(t.Rows,
		Row{Label: "core<->DC-L1 overhead (cyc)", Cells: []float64{hop}},
		Row{Label: "L1 32KB access (cyc)", Cells: []float64{float64(base32)}},
		Row{Label: "DC-L1 64KB access (cyc)", Cells: []float64{float64(dc64)}},
		Row{Label: "mean RTT ratio", Cells: []float64{stats.Mean(oRTT) / stats.Mean(bRTT)}},
	)
	t.Notes = append(t.Notes, "paper: +54 cycles hop overhead, 28->30 cycle access, RTT -53%")
	return t
}

func runFig19a(ctx *Context) *Table {
	t := &Table{
		ID:      "fig19a",
		Title:   "CDXBar designs vs Sh40+C10+Boost (IPC vs baseline, class means)",
		Columns: []string{"sensitive", "insensitive"},
	}
	designs := []struct {
		label string
		d     gpu.Design
	}{
		{"CDXBar", ctx.scaledDesign(gpu.Design{Kind: gpu.CDXBar})},
		{"CDXBar+2xNoC1", ctx.scaledDesign(gpu.Design{Kind: gpu.CDXBar, CDXBoostS1: true})},
		{"CDXBar+2xNoC", ctx.scaledDesign(gpu.Design{Kind: gpu.CDXBar, CDXBoostAll: true})},
		{"Sh40+C10+Boost", ctx.scaledDesign(boost())},
	}
	for _, dd := range designs {
		var sens, insens []float64
		for _, app := range workload.Sensitive() {
			b := ctx.runDefault(base(), app)
			r := ctx.runDefault(dd.d, app)
			sens = append(sens, r.IPC/b.IPC)
		}
		for _, app := range workload.InsensitiveApps() {
			b := ctx.runDefault(base(), app)
			r := ctx.runDefault(dd.d, app)
			insens = append(insens, r.IPC/b.IPC)
		}
		t.Rows = append(t.Rows, Row{Label: dd.label, Cells: []float64{stats.Geomean(sens), stats.Geomean(insens)}})
	}
	t.Notes = append(t.Notes, "paper: CDXBar 0.86/0.93, CDXBar+2xNoC 1.29/1.05, ours 1.75/0.99")
	return t
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
		var speed []float64
		for _, app := range workload.Sensitive() {
			b := ctx.run(cfg, base(), app)
			o := ctx.run(cfg, ctx.scaledDesign(boost()), app)
			speed = append(speed, o.IPC/b.IPC)
		}
		t.Rows = append(t.Rows, Row{Label: label, Cells: []float64{stats.Geomean(speed)}})
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
		var speed []float64
		for _, app := range workload.Sensitive() {
			b := ctx.run(cfg, base(), app)
			o := ctx.run(cfg, ctx.scaledDesign(boost()), app)
			speed = append(speed, o.IPC/b.IPC)
		}
		label := "round-robin"
		if sched == workload.Distributed {
			label = "distributed"
		}
		t.Rows = append(t.Rows, Row{Label: label, Cells: []float64{stats.Geomean(speed)}})
	}
	t.Notes = append(t.Notes, "paper: +75% under RR, +46% under the distributed scheduler")
	return t
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
	var sens, insens []float64
	for _, app := range workload.Sensitive() {
		b := ctx.run(cfg, base(), app)
		o := ctx.run(cfg, d, app)
		sens = append(sens, o.IPC/b.IPC)
	}
	for _, app := range workload.InsensitiveApps() {
		b := ctx.run(cfg, base(), app)
		o := ctx.run(cfg, d, app)
		insens = append(insens, o.IPC/b.IPC)
	}
	t.Rows = append(t.Rows, Row{Label: d.Name(), Cells: []float64{stats.Geomean(sens), stats.Geomean(insens)}})
	t.Notes = append(t.Notes, "paper: +67% sensitive, insensitive maintained")
	return t
}

func runBoostBase(ctx *Context) *Table {
	t := &Table{
		ID:      "boostbase",
		Title:   "Boosted baselines on sensitive apps (IPC vs plain baseline)",
		Columns: []string{"IPC ratio"},
	}
	entries := []struct {
		label string
		d     gpu.Design
	}{
		{"Baseline+2xL1", gpu.Design{Kind: gpu.Baseline, L1CapacityScale: 2}},
		{"Baseline+2xNoC", gpu.Design{Kind: gpu.Baseline, NoCBoost: true}},
		{"Baseline+2xFlit", gpu.Design{Kind: gpu.Baseline, FlitBytes: 64}},
		{"Sh40+C10+Boost", ctx.scaledDesign(boost())},
	}
	for _, e := range entries {
		var speed []float64
		for _, app := range workload.Sensitive() {
			b := ctx.runDefault(base(), app)
			r := ctx.runDefault(e.d, app)
			speed = append(speed, r.IPC/b.IPC)
		}
		t.Rows = append(t.Rows, Row{Label: e.label, Cells: []float64{stats.Geomean(speed)}})
	}
	t.Notes = append(t.Notes,
		"paper: boosted baselines 1.33-1.36 vs ours 1.75; 2x-L1 costs +84% cache area; the 80x32 crossbar cannot physically run 2x frequency (fig13b)")
	return t
}

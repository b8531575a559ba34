package experiments

import (
	"fmt"
	"sort"

	"dcl1sim/internal/gpu"
	"dcl1sim/internal/stats"
	"dcl1sim/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Fig 1: replication ratio, L1 miss rate, IPC at 16x L1 (per app)",
		Paper: "12 apps are replication-sensitive: repl>25%, miss>50%, 16x speedup>5%",
		Run:   runFig1,
	})
	register(Experiment{
		ID:    "fig2",
		Title: "Fig 2: max L1 data-port and NoC reply-link utilization (baseline)",
		Paper: "Max data-port utilization 18%; max reply-link utilization 30%",
		Run:   runFig2,
	})
	register(Experiment{
		ID:    "sec2c",
		Title: "Section II-C: single aggregated L1 (zero replication) potential",
		Paper: "L1 miss rate -89.5% and IPC 2.9x on replication-sensitive apps",
		Run:   runSec2C,
	})
	register(Experiment{
		ID:    "fig4",
		Title: "Fig 4: private DC-L1 aggregation (IPC, miss rate, perfect-$ study)",
		Paper: "Pr80 -3%, Pr40 +15%, Pr20 -3%, Pr10 -34% IPC; miss -19/-49/-74% for Pr40/20/10",
		Run:   runFig4,
	})
	register(Experiment{
		ID:    "fig8",
		Title: "Fig 8: Sh40 on replication-sensitive apps",
		Paper: "Miss rate -89% (27..99%), IPC +48% (up to 2.9x for T-AlexNet)",
		Run:   runFig8,
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Fig 9: Sh40 on replication-insensitive apps",
		Paper: "Most match baseline; R-SC improves; 5 poor performers lose 40-85%",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Fig 11: clustered shared DC-L1s across cluster counts",
		Paper: "Miss rate -72/-61/-41% for C5/C10/C20; C10 best overall IPC",
		Run:   runFig11,
	})
	register(Experiment{
		ID:    "fig13a",
		Title: "Fig 13a: poor-performing apps under Sh40 / +C10 / +C10+Boost",
		Paper: "Clustering relieves camping (C-RAY, P-3MM, P-GEMM); Boost recovers the rest",
		Run:   runFig13a,
	})
	register(Experiment{
		ID:    "fig14",
		Title: "Fig 14: IPC of all proposed designs on replication-sensitive apps",
		Paper: "Pr40 +15%, Sh40 +48%, Sh40+C10 +41%, Sh40+C10+Boost +75% (up to 8x)",
		Run:   runFig14,
	})
	register(Experiment{
		ID:    "fig15",
		Title: "Fig 15: speedup S-curves over all 28 applications",
		Paper: "Sh40+C10+Boost improves overall by 27% and pushes the tail to baseline",
		Run:   runFig15,
	})
	register(Experiment{
		ID:    "fig16",
		Title: "Fig 16: L1 miss rate and replicas per line across designs",
		Paper: "Replicas: baseline 7.7, Pr40 5.7, Sh40+C10+Boost 2.8, Sh40 0 (1 copy)",
		Run:   runFig16,
	})
	register(Experiment{
		ID:    "fig17",
		Title: "Fig 17: DC-L1 data-port utilization S-curves",
		Paper: "All proposed designs show higher DC-L1 port utilization than baseline",
		Run:   runFig17,
	})
}

func runFig1(ctx *Context) *Table {
	t := &Table{
		ID:      "fig1",
		Title:   "Baseline fingerprint per application",
		Columns: []string{"repl ratio", "miss rate", "16x speedup", "paper repl", "paper miss"},
	}
	for _, app := range workload.Apps() {
		b := ctx.runDefault(base(), app)
		big := ctx.runDefault(gpu.Design{Kind: gpu.Baseline, L1CapacityScale: 16}, app)
		t.Rows = append(t.Rows, Row{Label: app.Name, Cells: []float64{
			b.ReplicationRatio, b.L1MissRate, big.IPC / b.IPC,
			app.PaperReplRatio, app.PaperMissRate,
		}})
	}
	return t
}

func runFig2(ctx *Context) *Table {
	t := &Table{
		ID:      "fig2",
		Title:   "Baseline utilization per application (sorted ascending)",
		Columns: []string{"L1 port util", "reply link util"},
	}
	type row struct {
		name   string
		pu, lu float64
	}
	var rows []row
	for _, app := range workload.Apps() {
		b := ctx.runDefault(base(), app)
		rows = append(rows, row{app.Name, b.MaxL1PortUtil, b.MaxReplyLinkUtil})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].pu < rows[j].pu })
	maxPU, maxLU := 0.0, 0.0
	for _, r := range rows {
		t.Rows = append(t.Rows, Row{Label: r.name, Cells: []float64{r.pu, r.lu}})
		if r.pu > maxPU {
			maxPU = r.pu
		}
		if r.lu > maxLU {
			maxLU = r.lu
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"max port util %.2f (paper 0.18), max reply-link util %.2f (paper 0.30)", maxPU, maxLU))
	return t
}

func runSec2C(ctx *Context) *Table {
	t := &Table{
		ID:      "sec2c",
		Title:   "Single aggregated L1 vs baseline (replication-sensitive apps)",
		Columns: []string{"miss reduction", "IPC speedup"},
	}
	var missRed, speed []float64
	for _, app := range workload.Sensitive() {
		b := ctx.runDefault(base(), app)
		s := ctx.runDefault(gpu.Design{Kind: gpu.SingleL1}, app)
		mr := 1 - s.L1MissRate/b.L1MissRate
		sp := s.IPC / b.IPC
		missRed = append(missRed, mr)
		speed = append(speed, sp)
		t.Rows = append(t.Rows, Row{Label: app.Name, Cells: []float64{mr, sp}})
	}
	t.Rows = append(t.Rows, Row{Label: "MEAN", Cells: []float64{stats.Mean(missRed), stats.Geomean(speed)}})
	t.Notes = append(t.Notes, "paper: miss -89.5% average, IPC 2.9x average")
	return t
}

func runFig4(ctx *Context) *Table {
	ys := []int{80, 40, 20, 10}
	t := &Table{
		ID:      "fig4",
		Title:   "Private DC-L1 designs on replication-sensitive apps (vs baseline)",
		Columns: []string{"IPC ratio", "miss ratio", "perfect IPC ratio"},
	}
	basePerfect := []float64{}
	for _, y := range ys {
		var ipc, miss, pipc []float64
		for _, app := range workload.Sensitive() {
			b := ctx.runDefault(base(), app)
			r := ctx.runDefault(ctx.scaledDesign(pr(y)), app)
			p := ctx.runDefault(ctx.scaledDesign(gpu.Design{Kind: gpu.Private, DCL1s: y, PerfectL1: true}), app)
			ipc = append(ipc, r.IPC/b.IPC)
			if b.L1MissRate > 0 {
				miss = append(miss, r.L1MissRate/b.L1MissRate)
			}
			pipc = append(pipc, p.IPC/b.IPC)
		}
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("Pr%d", y),
			Cells: []float64{stats.Geomean(ipc), stats.Mean(miss), stats.Geomean(pipc)},
		})
	}
	// Perfect private L1 baseline (the "Base" bar of Fig 4c).
	for _, app := range workload.Sensitive() {
		b := ctx.runDefault(base(), app)
		p := ctx.runDefault(gpu.Design{Kind: gpu.Baseline, PerfectL1: true}, app)
		basePerfect = append(basePerfect, p.IPC/b.IPC)
	}
	t.Rows = append(t.Rows, Row{Label: "Base+Perfect", Cells: []float64{1, 1, stats.Geomean(basePerfect)}})
	t.Notes = append(t.Notes,
		"paper 4a: Pr80 0.97, Pr40 1.15, Pr20 0.97, Pr10 0.66",
		"paper 4b: miss ratio Pr40 0.81, Pr20 0.51, Pr10 0.26",
		"paper 4c: perfect-$ Base 5.2x, Pr80 ~3.2x, Pr40 2.2x")
	return t
}

func runFig8(ctx *Context) *Table {
	t := &Table{
		ID:      "fig8",
		Title:   "Sh40 on replication-sensitive apps (vs baseline)",
		Columns: []string{"miss ratio", "IPC ratio"},
	}
	var misses, ipcs []float64
	for _, app := range workload.Sensitive() {
		b := ctx.runDefault(base(), app)
		s := ctx.runDefault(ctx.scaledDesign(sh40()), app)
		mr := 0.0
		if b.L1MissRate > 0 {
			mr = s.L1MissRate / b.L1MissRate
		}
		misses = append(misses, mr)
		ipcs = append(ipcs, s.IPC/b.IPC)
		t.Rows = append(t.Rows, Row{Label: app.Name, Cells: []float64{mr, s.IPC / b.IPC}})
	}
	t.Rows = append(t.Rows, Row{Label: "MEAN", Cells: []float64{stats.Mean(misses), stats.Geomean(ipcs)}})
	t.Notes = append(t.Notes, "paper: miss -89% average, IPC +48% average, P-2MM only +6% (camping), P-3DCONV -3% (bandwidth)")
	return t
}

func runFig9(ctx *Context) *Table {
	t := &Table{
		ID:      "fig9",
		Title:   "Sh40 on replication-insensitive apps (IPC vs baseline)",
		Columns: []string{"IPC ratio"},
	}
	var all []float64
	for _, app := range workload.InsensitiveApps() {
		b := ctx.runDefault(base(), app)
		s := ctx.runDefault(ctx.scaledDesign(sh40()), app)
		v := s.IPC / b.IPC
		all = append(all, v)
		t.Rows = append(t.Rows, Row{Label: app.Name, Cells: []float64{v}})
	}
	t.Rows = append(t.Rows, Row{Label: "MEAN", Cells: []float64{stats.Geomean(all)}})
	t.Notes = append(t.Notes, "paper: 5 poor performers lose 40-85% (C-NN, C-RAY, P-3MM, P-GEMM, P-2DCONV); R-SC gains")
	return t
}

func runFig11(ctx *Context) *Table {
	t := &Table{
		ID:      "fig11",
		Title:   "Cluster-count sweep on replication-sensitive apps (vs baseline)",
		Columns: []string{"IPC ratio", "miss ratio", "replicas"},
	}
	type cfgRow struct {
		label string
		d     gpu.Design
	}
	rows := []cfgRow{
		{"C1(Sh40)", sh40()},
		{"C5", shc(5)},
		{"C10", shc(10)},
		{"C20", shc(20)},
		{"C40(Pr40)", pr(40)},
	}
	for _, cr := range rows {
		var ipc, miss, reps []float64
		for _, app := range workload.Sensitive() {
			b := ctx.runDefault(base(), app)
			r := ctx.runDefault(ctx.scaledDesign(cr.d), app)
			ipc = append(ipc, r.IPC/b.IPC)
			if b.L1MissRate > 0 {
				miss = append(miss, r.L1MissRate/b.L1MissRate)
			}
			reps = append(reps, r.MeanReplicas)
		}
		t.Rows = append(t.Rows, Row{Label: cr.label, Cells: []float64{stats.Geomean(ipc), stats.Mean(miss), stats.Mean(reps)}})
	}
	t.Notes = append(t.Notes, "paper: miss ratio 0.28/0.39/0.59 for C5/C10/C20; C10 chosen")
	return t
}

func runFig13a(ctx *Context) *Table {
	t := &Table{
		ID:      "fig13a",
		Title:   "Poor-performing apps (IPC vs baseline)",
		Columns: []string{"Sh40", "Sh40+C10", "Sh40+C10+Boost"},
	}
	for _, app := range workload.Poor() {
		b := ctx.runDefault(base(), app)
		s := ctx.runDefault(ctx.scaledDesign(sh40()), app)
		c := ctx.runDefault(ctx.scaledDesign(shc(10)), app)
		bo := ctx.runDefault(ctx.scaledDesign(boost()), app)
		t.Rows = append(t.Rows, Row{Label: app.Name, Cells: []float64{
			s.IPC / b.IPC, c.IPC / b.IPC, bo.IPC / b.IPC,
		}})
	}
	t.Notes = append(t.Notes,
		"paper: camping apps (C-RAY, P-3MM, P-GEMM) recover under C10; P-2DCONV needs Boost; max remaining drop 49% without Boost")
	return t
}

func proposedDesigns(ctx *Context) []struct {
	Label string
	D     gpu.Design
} {
	return []struct {
		Label string
		D     gpu.Design
	}{
		{"Pr40", ctx.scaledDesign(pr(40))},
		{"Sh40", ctx.scaledDesign(sh40())},
		{"Sh40+C10", ctx.scaledDesign(shc(10))},
		{"Sh40+C10+Boost", ctx.scaledDesign(boost())},
	}
}

func runFig14(ctx *Context) *Table {
	t := &Table{
		ID:      "fig14",
		Title:   "IPC of the proposed designs on replication-sensitive apps (vs baseline)",
		Columns: []string{"Pr40", "Sh40", "Sh40+C10", "Sh40+C10+Boost"},
	}
	sums := make([][]float64, 4)
	for _, app := range workload.Sensitive() {
		b := ctx.runDefault(base(), app)
		cells := make([]float64, 4)
		for i, pd := range proposedDesigns(ctx) {
			r := ctx.runDefault(pd.D, app)
			cells[i] = r.IPC / b.IPC
			sums[i] = append(sums[i], cells[i])
		}
		t.Rows = append(t.Rows, Row{Label: app.Name, Cells: cells})
	}
	meanCells := make([]float64, 4)
	for i := range sums {
		meanCells[i] = stats.Geomean(sums[i])
	}
	t.Rows = append(t.Rows, Row{Label: "GEOMEAN", Cells: meanCells})
	t.Notes = append(t.Notes, "paper means: Pr40 1.15, Sh40 1.48, Sh40+C10 1.41, Sh40+C10+Boost 1.75 (max 8x)")
	return t
}

func runFig15(ctx *Context) *Table {
	t := &Table{
		ID:      "fig15",
		Title:   "Speedups over all applications (rows sorted by Boost speedup)",
		Columns: []string{"Pr40", "Sh40", "Sh40+C10", "Sh40+C10+Boost"},
	}
	var all [][]float64
	var labels []string
	var boostAll []float64
	for _, app := range workload.Apps() {
		b := ctx.runDefault(base(), app)
		cells := make([]float64, 4)
		for i, pd := range proposedDesigns(ctx) {
			r := ctx.runDefault(pd.D, app)
			cells[i] = r.IPC / b.IPC
		}
		all = append(all, cells)
		labels = append(labels, app.Name)
		boostAll = append(boostAll, cells[3])
	}
	idx := make([]int, len(all))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return all[idx[a]][3] < all[idx[b]][3] })
	for _, i := range idx {
		t.Rows = append(t.Rows, Row{Label: labels[i], Cells: all[i]})
	}
	t.Rows = append(t.Rows, Row{Label: "GEOMEAN(all)", Cells: []float64{
		geomeanCol(all, 0), geomeanCol(all, 1), geomeanCol(all, 2), geomeanCol(all, 3),
	}})
	t.Notes = append(t.Notes, "paper: Sh40+C10+Boost +27% across all 28 apps; insensitive apps lose <1%")
	return t
}

func geomeanCol(rows [][]float64, col int) float64 {
	var vs []float64
	for _, r := range rows {
		vs = append(vs, r[col])
	}
	return stats.Geomean(vs)
}

func runFig16(ctx *Context) *Table {
	t := &Table{
		ID:      "fig16",
		Title:   "L1 miss-rate ratio and replicas/line (replication-sensitive apps)",
		Columns: []string{"miss ratio", "replicas"},
	}
	type entry struct {
		label string
		d     gpu.Design
	}
	entries := []entry{
		{"Baseline", base()},
		{"Pr40", ctx.scaledDesign(pr(40))},
		{"Sh40", ctx.scaledDesign(sh40())},
		{"Sh40+C10+Boost", ctx.scaledDesign(boost())},
	}
	for _, e := range entries {
		var miss, reps []float64
		for _, app := range workload.Sensitive() {
			b := ctx.runDefault(base(), app)
			r := ctx.runDefault(e.d, app)
			if b.L1MissRate > 0 {
				miss = append(miss, r.L1MissRate/b.L1MissRate)
			}
			reps = append(reps, r.MeanReplicas)
		}
		t.Rows = append(t.Rows, Row{Label: e.label, Cells: []float64{stats.Mean(miss), stats.Mean(reps)}})
	}
	t.Notes = append(t.Notes, "paper replicas: baseline 7.7, Pr40 5.7, Sh40+C10+Boost 2.8, Sh40 1 copy")
	return t
}

func runFig17(ctx *Context) *Table {
	t := &Table{
		ID:      "fig17",
		Title:   "Max DC-L1/L1 data-port utilization per app (sorted by baseline)",
		Columns: []string{"Baseline", "Pr40", "Sh40", "Sh40+C10+Boost"},
	}
	type row struct {
		name  string
		cells []float64
	}
	var rows []row
	for _, app := range workload.Apps() {
		b := ctx.runDefault(base(), app)
		pr40 := ctx.runDefault(ctx.scaledDesign(pr(40)), app)
		sh := ctx.runDefault(ctx.scaledDesign(sh40()), app)
		bo := ctx.runDefault(ctx.scaledDesign(boost()), app)
		rows = append(rows, row{app.Name, []float64{
			b.MaxL1PortUtil, pr40.MaxL1PortUtil, sh.MaxL1PortUtil, bo.MaxL1PortUtil,
		}})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].cells[0] < rows[j].cells[0] })
	for _, r := range rows {
		t.Rows = append(t.Rows, Row{Label: r.name, Cells: r.cells})
	}
	t.Notes = append(t.Notes, "paper: every proposed design shows higher port utilization than baseline")
	return t
}

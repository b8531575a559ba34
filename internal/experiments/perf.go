package experiments

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"dcl1sim/internal/stats"
	"dcl1sim/internal/workload"
)

func init() {
	register(Experiment{
		ID:     "fig1",
		Title:  "Fig 1: replication ratio, L1 miss rate, IPC at 16x L1 (per app)",
		Paper:  "12 apps are replication-sensitive: repl>25%, miss>50%, 16x speedup>5%",
		Run:    runFig1,
		Claims: fig1Claims,
	})
	register(Experiment{
		ID:     "fig2",
		Title:  "Fig 2: max L1 data-port and NoC reply-link utilization (baseline)",
		Paper:  "Max data-port utilization 18%; max reply-link utilization 30%",
		Run:    runFig2,
		Claims: fig2Claims,
	})
	register(Experiment{
		ID:     "sec2c",
		Title:  "Section II-C: single aggregated L1 (zero replication) potential",
		Paper:  "L1 miss rate -89.5% and IPC 2.9x on replication-sensitive apps",
		Run:    runSec2C,
		Claims: sec2cClaims,
	})
	register(Experiment{
		ID:     "fig4",
		Title:  "Fig 4: private DC-L1 aggregation (IPC, miss rate, perfect-$ study)",
		Paper:  "Pr80 -3%, Pr40 +15%, Pr20 -3%, Pr10 -34% IPC; miss -19/-49/-74% for Pr40/20/10",
		Run:    runFig4,
		Claims: fig4Claims,
	})
	register(Experiment{
		ID:     "fig8",
		Title:  "Fig 8: Sh40 on replication-sensitive apps",
		Paper:  "Miss rate -89% (27..99%), IPC +48% (up to 2.9x for T-AlexNet)",
		Run:    runFig8,
		Claims: fig8Claims,
	})
	register(Experiment{
		ID:     "fig9",
		Title:  "Fig 9: Sh40 on replication-insensitive apps",
		Paper:  "Most match baseline; R-SC improves; 5 poor performers lose 40-85%",
		Run:    runFig9,
		Claims: fig9Claims,
	})
	register(Experiment{
		ID:     "fig11",
		Title:  "Fig 11: clustered shared DC-L1s across cluster counts",
		Paper:  "Miss rate -72/-61/-41% for C5/C10/C20; C10 best overall IPC",
		Run:    runFig11,
		Claims: fig11Claims,
	})
	register(Experiment{
		ID:     "fig13a",
		Title:  "Fig 13a: poor-performing apps under Sh40 / +C10 / +C10+Boost",
		Paper:  "Clustering relieves camping (C-RAY, P-3MM, P-GEMM); Boost recovers the rest",
		Run:    runFig13a,
		Claims: fig13aClaims,
	})
	register(Experiment{
		ID:     "fig14",
		Title:  "Fig 14: IPC of all proposed designs on replication-sensitive apps",
		Paper:  "Pr40 +15%, Sh40 +48%, Sh40+C10 +41%, Sh40+C10+Boost +75% (up to 8x)",
		Run:    runFig14,
		Claims: fig14Claims,
	})
	register(Experiment{
		ID:     "fig15",
		Title:  "Fig 15: speedup S-curves over all 28 applications",
		Paper:  "Sh40+C10+Boost improves overall by 27% and pushes the tail to baseline",
		Run:    runFig15,
		Claims: fig15Claims,
	})
	register(Experiment{
		ID:     "fig16",
		Title:  "Fig 16: L1 miss rate and replicas per line across designs",
		Paper:  "Replicas: baseline 7.7, Pr40 5.7, Sh40+C10+Boost 2.8, Sh40 0 (1 copy)",
		Run:    runFig16,
		Claims: fig16Claims,
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
	base, big := ctx.design("Baseline"), ctx.design("Baseline+16xL1")
	for _, app := range workload.Apps() {
		b := ctx.runDefault(base, app)
		speedup, _ := ctx.vs(ctx.Base, base, big, app)
		t.Rows = append(t.Rows, Row{Label: app.Name, Cells: []float64{
			b.ReplicationRatio, b.L1MissRate, speedup,
			app.PaperReplRatio, app.PaperMissRate,
		}})
	}
	// The distance to the paper's readings is a trajectory, not a claim.
	var dRepl, dMiss float64
	far := 0
	for _, r := range t.Rows {
		dRepl += math.Abs(r.Cells[0] - r.Cells[3])
		d := math.Abs(r.Cells[1] - r.Cells[4])
		dMiss += d
		if d > fig1Far {
			far++
		}
	}
	n := float64(len(t.Rows))
	t.Notes = append(t.Notes, fmt.Sprintf(
		"distance to the paper: mean |miss - paper| %.3f, mean |repl - paper| %.3f; %d of %d apps' miss rates more than %.2f off",
		dMiss/n, dRepl/n, far, len(t.Rows), fig1Far))
	return t
}

// The paper's replication-sensitivity criteria (Section II-B).
const (
	sensitiveRepl = 0.25
	sensitiveMiss = 0.5
	sensitiveGain = 1.05
)

// fig1Far is the miss-rate distance from the paper's reading at which
// fig1's note counts an app as far off.
const fig1Far = 0.15

// fig1CriteriaGap names the insensitive apps whose stand-ins meet all three
// criteria anyway: a known gap. Their class stays the paper's.
var fig1CriteriaGap = []string{"R-SC"}

func meetsCriteria(t *Table, app string) bool {
	return t.Cell(app, "repl ratio") > sensitiveRepl &&
		t.Cell(app, "miss rate") > sensitiveMiss &&
		t.Cell(app, "16x speedup") > sensitiveGain
}

var fig1Claims = []Claim{
	{Name: "fig1/sensitive-criteria", Check: func(t *Table) (bool, string) {
		var fail []string
		for _, app := range workload.Sensitive() {
			if !meetsCriteria(t, app.Name) {
				fail = append(fail, app.Name)
			}
		}
		return len(fail) == 0, fmt.Sprintf("sensitive apps failing repl > %.2f, miss > %.2f, 16x > %.2f: %s",
			sensitiveRepl, sensitiveMiss, sensitiveGain, list(fail))
	}},
	{Name: "fig1/insensitive-criteria", Check: func(t *Table) (bool, string) {
		var meet []string
		for _, app := range workload.Apps() {
			if app.Class != workload.ReplicationSensitive && meetsCriteria(t, app.Name) {
				meet = append(meet, app.Name)
			}
		}
		return slices.Equal(meet, fig1CriteriaGap), fmt.Sprintf("insensitive apps meeting all three: %s (known gap: %s; paper: none)",
			list(meet), list(fig1CriteriaGap))
	}},
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
		b := ctx.runDefault(ctx.design("Baseline"), app)
		rows = append(rows, row{app.Name, b.MaxL1PortUtil, b.MaxReplyLinkUtil})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].pu < rows[j].pu })
	for _, r := range rows {
		t.Rows = append(t.Rows, Row{Label: r.name, Cells: []float64{r.pu, r.lu}})
	}
	return t
}

// fig2Ports is the paper's ceiling on baseline L1 data-port use; fig2Reply
// brackets our reply-link peak, known deviation 1.
var (
	fig2Ports = band{0, 0.18, "0.18"}
	fig2Reply = band{0.85, 1, "0.30"}
)

var fig2Claims = []Claim{
	maxIn("fig2/ports-underused", "L1 port util", fig2Ports),
	maxIn("fig2/reply-link-gap", "reply link util", fig2Reply),
}

func runSec2C(ctx *Context) *Table {
	t := &Table{
		ID:      "sec2c",
		Title:   "Single aggregated L1 vs baseline (replication-sensitive apps)",
		Columns: []string{"miss reduction", "IPC speedup"},
	}
	var missRed, speed []float64
	base, single := ctx.design("Baseline"), ctx.design("SingleL1")
	for _, app := range workload.Sensitive() {
		sp, miss := ctx.vs(ctx.Base, base, single, app)
		mr := 1 - miss
		missRed = append(missRed, mr)
		speed = append(speed, sp)
		t.Rows = append(t.Rows, Row{Label: app.Name, Cells: []float64{mr, sp}})
	}
	t.Rows = append(t.Rows, Row{Label: "MEAN", Cells: []float64{stats.Mean(missRed), stats.Geomean(speed)}})
	t.Notes = append(t.Notes, "paper: miss -89.5% average")
	return t
}

// sec2cGain is a band around the paper's own 2.9x.
var sec2cGain = band{2.4, 3.4, "2.9"}

var sec2cClaims = []Claim{
	cellsIn("sec2c/single-l1-speedup", false, "IPC speedup", sec2cGain, "MEAN"),
}

func runFig4(ctx *Context) *Table {
	ys := []int{80, 40, 20, 10}
	t := &Table{
		ID:      "fig4",
		Title:   "Private DC-L1 designs on replication-sensitive apps (vs baseline)",
		Columns: []string{"IPC ratio", "miss ratio", "perfect IPC ratio"},
	}
	base := ctx.design("Baseline")
	for _, y := range ys {
		pr, perfect := ctx.design(fmt.Sprintf("Pr%d", y)), ctx.design(fmt.Sprintf("Pr%d+PerfectL1", y))
		var ipc, miss, pipc []float64
		for _, app := range workload.Sensitive() {
			i, m := ctx.vs(ctx.Base, base, pr, app)
			p, _ := ctx.vs(ctx.Base, base, perfect, app)
			ipc, miss, pipc = append(ipc, i), append(miss, m), append(pipc, p)
		}
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("Pr%d", y),
			Cells: []float64{stats.Geomean(ipc), stats.Mean(miss), stats.Geomean(pipc)},
		})
	}
	// Perfect private L1 baseline (the "Base" bar of Fig 4c).
	basePerfect, _ := ctx.gain(ctx.Base, ctx.design("Baseline+PerfectL1"), workload.Sensitive())
	t.Rows = append(t.Rows, Row{Label: "Base+Perfect", Cells: []float64{1, 1, basePerfect}})
	t.Notes = append(t.Notes,
		"paper 4b: miss ratio Pr40 0.81, Pr20 0.51, Pr10 0.26",
		"paper 4c: perfect-$ Base 5.2x, Pr80 ~3.2x, Pr40 2.2x")
	return t
}

// fig4Neutral is the paper's "Pr80 and Pr20 roughly match the baseline"
// (both read 0.97, so neither is claimed above the other); fig4Collapse is
// its Pr10 cliff.
var (
	fig4Neutral  = band{0.95, 1.05, "0.97 and 0.97"}
	fig4Collapse = band{0, 0.8, "0.66"}
)

var fig4Claims = []Claim{
	{Name: "fig4/pr40-sweet-spot", Check: func(t *Table) (bool, string) {
		top := t.Cell("Pr40", "IPC ratio")
		ok := top > 1
		var rest []string
		for _, r := range []string{"Pr80", "Pr20", "Pr10"} {
			v := t.Cell(r, "IPC ratio")
			ok = ok && top > v
			rest = append(rest, fmt.Sprintf("%s %.3f", r, v))
		}
		return ok, fmt.Sprintf("Pr40 %.3f above 1 and %s (paper 1.15)", top, list(rest))
	}},
	cellsIn("fig4/pr80-pr20-neutral", false, "IPC ratio", fig4Neutral, "Pr80", "Pr20"),
	cellsIn("fig4/pr10-collapse", false, "IPC ratio", fig4Collapse, "Pr10"),
}

func runFig8(ctx *Context) *Table {
	t := &Table{
		ID:      "fig8",
		Title:   "Sh40 on replication-sensitive apps (vs baseline)",
		Columns: []string{"miss ratio", "IPC ratio"},
	}
	var misses, ipcs []float64
	base, sh := ctx.design("Baseline"), ctx.design("Sh40")
	for _, app := range workload.Sensitive() {
		ipc, mr := ctx.vs(ctx.Base, base, sh, app)
		misses = append(misses, mr)
		ipcs = append(ipcs, ipc)
		t.Rows = append(t.Rows, Row{Label: app.Name, Cells: []float64{mr, ipc}})
	}
	t.Rows = append(t.Rows, Row{Label: "MEAN", Cells: []float64{stats.Mean(misses), stats.Geomean(ipcs)}})
	t.Notes = append(t.Notes, "paper: P-2MM only +6% (camping), P-3DCONV -3% (bandwidth)")
	return t
}

// fig8Sh40Gain and fig8MissFloor bracket known gaps: our Sh40 gains more
// than the paper's, and keeps more residual misses (known deviation 4).
var (
	fig8Sh40Gain  = band{1.65, 1.85, "1.48"}
	fig8MissFloor = band{0.30, 0.36, "0.11"}
)

var fig8Claims = []Claim{
	cellsIn("fig8/sh40-gain", true, "IPC ratio", fig8Sh40Gain, "MEAN"),
	cellsIn("fig8/miss-floor", true, "miss ratio", fig8MissFloor, "MEAN"),
}

func runFig9(ctx *Context) *Table {
	t := &Table{
		ID:      "fig9",
		Title:   "Sh40 on replication-insensitive apps (IPC vs baseline)",
		Columns: []string{"IPC ratio"},
	}
	t.Rows = ctx.gainRows(workload.InsensitiveApps(), "Sh40")
	t.Rows = append(t.Rows, geomeanRow("MEAN", t.Rows))
	return t
}

// fig9Loss is the paper's range for its five poor performers (they lose
// 40-85 %). fig9CNNGap brackets C-NN, which loses less than that, and
// fig9Others the eleven remaining apps, two of which (R-SRAD, R-KM) gain
// where the paper's hold (known deviation 3).
var (
	fig9Loss   = band{0.15, 0.60, "0.15-0.60"}
	fig9CNNGap = band{0.62, 0.75, "0.15-0.60"}
	fig9Others = band{0.98, 1.32, "about 1, R-SC above"}
)

var fig9Claims = []Claim{
	cellsIn("fig9/camping-trio", true, "IPC ratio", fig9Loss, "C-RAY", "P-3MM", "P-GEMM"),
	cellsIn("fig9/2dconv-bandwidth", false, "IPC ratio", fig9Loss, "P-2DCONV"),
	cellsIn("fig9/cnn-latency", false, "IPC ratio", fig9CNNGap, "C-NN"),
	{Name: "fig9/others-near-baseline", Check: func(t *Table) (bool, string) {
		skip := []string{"MEAN"}
		for _, app := range workload.Poor() {
			skip = append(skip, app.Name)
		}
		return cellsIn("", false, "IPC ratio", fig9Others, rowLabels(t, skip...)...).Check(t)
	}},
}

func runFig11(ctx *Context) *Table {
	t := &Table{
		ID:      "fig11",
		Title:   "Cluster-count sweep on replication-sensitive apps (vs baseline)",
		Columns: []string{"IPC ratio", "miss ratio", "replicas"},
	}
	rows := []struct{ label, name string }{
		{"C1(Sh40)", "Sh40"},
		{"C5", "Sh40+C5"},
		{"C10", "Sh40+C10"},
		{"C20", "Sh40+C20"},
		{"C40(Pr40)", "Pr40"},
	}
	for _, cr := range rows {
		d := ctx.design(cr.name)
		ipc, miss := ctx.gain(ctx.Base, d, workload.Sensitive())
		t.Rows = append(t.Rows, Row{Label: cr.label, Cells: []float64{ipc, miss, ctx.replicas(d, workload.Sensitive())}})
	}
	t.Notes = append(t.Notes, "paper: C10 chosen")
	return t
}

// fig11C10Replicas brackets our C10 replica count; the paper's 2.8 is its
// fig16 reading for Sh40+C10+Boost, the same cluster shape.
var fig11C10Replicas = band{3.7, 4.3, "2.8"}

// fig11Z is each row's cluster count: at most that many copies of a line.
var fig11Z = []struct {
	row string
	z   float64
}{{"C1(Sh40)", 1}, {"C5", 5}, {"C10", 10}, {"C20", 20}, {"C40(Pr40)", 40}}

var fig11Claims = []Claim{
	{Name: "fig11/replicas-bounded", Tier1: true, Check: func(t *Table) (bool, string) {
		ok := true
		parts := make([]string, len(fig11Z))
		for i, c := range fig11Z {
			v := t.Cell(c.row, "replicas")
			ok = ok && v <= c.z && (i == 0 || v > t.Cell(fig11Z[i-1].row, "replicas"))
			parts[i] = fmt.Sprintf("%.3f <= %g", v, c.z)
		}
		return ok, "rising, each at most Z: " + strings.Join(parts, ", ")
	}},
	cellsIn("fig11/c10-replicas", true, "replicas", fig11C10Replicas, "C10"),
	{Name: "fig11/miss-rises", Tier1: true, Check: func(t *Table) (bool, string) {
		vs := make([]float64, len(fig11Z))
		for i, c := range fig11Z {
			vs[len(vs)-1-i] = t.Cell(c.row, "miss ratio")
		}
		ok, reading := descending(vs...)
		return ok, "C40 > C20 > C10 > C5 > C1: " + reading + " (paper C20 0.59 > C10 0.39 > C5 0.28 > C1 0.11)"
	}},
}

func runFig13a(ctx *Context) *Table {
	t := &Table{
		ID:      "fig13a",
		Title:   "Poor-performing apps (IPC vs baseline)",
		Columns: []string{"Sh40", "Sh40+C10", "Sh40+C10+Boost"},
	}
	t.Rows = ctx.gainRows(workload.Poor(), t.Columns...)
	t.Notes = append(t.Notes,
		"paper: max remaining drop 49% without Boost")
	return t
}

// fig13aCampingGap brackets the camping trio under Sh40+C10: they recover
// above the baseline where the paper's stay just below (known deviation 2).
var fig13aCampingGap = band{1.05, 1.25, "just below 1"}

var fig13aClaims = []Claim{
	cellsIn("fig13a/camping-recovers", false, "Sh40+C10", fig13aCampingGap, "C-RAY", "P-3MM", "P-GEMM"),
	{Name: "fig13a/2dconv-needs-boost", Check: func(t *Table) (bool, string) {
		ok, reading := descending(t.Cell("P-2DCONV", "Sh40+C10+Boost"), 1,
			t.Cell("P-2DCONV", "Sh40+C10"), t.Cell("P-2DCONV", "Sh40"))
		return ok, "Boost > 1 > C10 > Sh40: " + reading + " (paper C10 0.51)"
	}},
}

var proposedDesigns = []string{"Pr40", "Sh40", "Sh40+C10", "Sh40+C10+Boost"}

func runFig14(ctx *Context) *Table {
	t := &Table{
		ID:      "fig14",
		Title:   "IPC of the proposed designs on replication-sensitive apps (vs baseline)",
		Columns: []string{"Pr40", "Sh40", "Sh40+C10", "Sh40+C10+Boost"},
	}
	t.Rows = ctx.gainRows(workload.Sensitive(), proposedDesigns...)
	t.Rows = append(t.Rows, geomeanRow("GEOMEAN", t.Rows))
	return t
}

// fig14MaxGap brackets our largest single-app gain under Sh40+C10+Boost
// (T-AlexNet); the paper's reaches 8x.
var fig14MaxGap = band{4.3, 5.1, "8"}

var fig14Claims = []Claim{
	{Name: "fig14/ordering", Tier1: true, Check: func(t *Table) (bool, string) {
		ok, reading := descending(t.Cell("GEOMEAN", "Sh40+C10+Boost"), t.Cell("GEOMEAN", "Sh40"),
			t.Cell("GEOMEAN", "Sh40+C10"), t.Cell("GEOMEAN", "Pr40"), 1)
		return ok, "Boost > Sh40 > C10 > Pr40 > 1: " + reading + " (paper 1.75 > 1.48 > 1.41 > 1.15 > 1)"
	}},
	maxIn("fig14/max-gain", "Sh40+C10+Boost", fig14MaxGap),
}

func runFig15(ctx *Context) *Table {
	t := &Table{
		ID:      "fig15",
		Title:   "Speedups over all applications (rows sorted by Boost speedup)",
		Columns: []string{"Pr40", "Sh40", "Sh40+C10", "Sh40+C10+Boost"},
	}
	t.Rows = ctx.gainRows(workload.Apps(), proposedDesigns...)
	mean := geomeanRow("GEOMEAN(all)", t.Rows)
	sort.Slice(t.Rows, func(a, b int) bool { return t.Rows[a].Cells[3] < t.Rows[b].Cells[3] })
	t.Rows = append(t.Rows, mean)
	t.Notes = append(t.Notes, "paper: insensitive apps lose <1%")
	return t
}

// fig15Overall brackets Sh40+C10+Boost's gain over all 28 apps, above the
// paper's because the insensitive apps gain too (known deviation 3).
var fig15Overall = band{1.36, 1.51, "1.27"}

var fig15Claims = []Claim{
	cellsIn("fig15/boost-overall", false, "Sh40+C10+Boost", fig15Overall, "GEOMEAN(all)"),
	{Name: "fig15/tail-lifted", Check: func(t *Table) (bool, string) {
		bApp, b := colMin(t, "Sh40+C10+Boost")
		sApp, s := colMin(t, "Sh40")
		ok, reading := descending(b, s)
		return ok, fmt.Sprintf("lowest app under Boost above lowest under Sh40: %s (%s, %s)", reading, bApp, sApp)
	}},
}

func runFig16(ctx *Context) *Table {
	t := &Table{
		ID:      "fig16",
		Title:   "L1 miss-rate ratio and replicas/line (replication-sensitive apps)",
		Columns: []string{"miss ratio", "replicas"},
	}
	for _, name := range []string{"Baseline", "Pr40", "Sh40", "Sh40+C10+Boost"} {
		d := ctx.design(name)
		_, miss := ctx.gain(ctx.Base, d, workload.Sensitive())
		t.Rows = append(t.Rows, Row{Label: name, Cells: []float64{miss, ctx.replicas(d, workload.Sensitive())}})
	}
	return t
}

var fig16Claims = []Claim{
	{Name: "fig16/replica-order", Check: func(t *Table) (bool, string) {
		sh := t.Cell("Sh40", "replicas")
		ok, reading := descending(t.Cell("Baseline", "replicas"), t.Cell("Pr40", "replicas"),
			t.Cell("Sh40+C10+Boost", "replicas"), sh)
		return ok && sh == 1, "Baseline > Pr40 > Boost > Sh40 = 1: " + reading + " (paper 7.7 > 5.7 > 2.8 > 1)"
	}},
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
		b := ctx.runDefault(ctx.design("Baseline"), app)
		pr40 := ctx.runDefault(ctx.design("Pr40"), app)
		sh := ctx.runDefault(ctx.design("Sh40"), app)
		bo := ctx.runDefault(ctx.design("Sh40+C10+Boost"), app)
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

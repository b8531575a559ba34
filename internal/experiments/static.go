package experiments

import (
	"fmt"
	"slices"

	"dcl1sim/internal/gpu"
	"dcl1sim/internal/mem"
	"dcl1sim/internal/power"
)

// Static experiments: derived entirely from the analytic DSENT/CACTI-like
// models, no simulation required. These always use the 80-core machine shape
// regardless of context (the paper's numbers are for that machine).

func paperCfg() gpu.Config { return gpu.Config{}.WithDefaults() }

func init() {
	register(Experiment{
		ID:    "tab1",
		Title: "Table I: NoC size and peak L1 bandwidth under private DC-L1 configs",
		Paper: "Peak L1 BW drops 4x/8x/16x/32x for Pr80/Pr40/Pr20/Pr10",
		Run:   runTab1,
	})
	register(Experiment{
		ID:     "fig6",
		Title:  "Fig 6: NoC area and static power under private DC-L1 designs",
		Paper:  "Area: Pr40 -28%, Pr20 -54%, Pr10 -67%; static power: Pr40 -4%",
		Run:    runFig6,
		Claims: fig6Claims,
	})
	register(Experiment{
		ID:     "fig12",
		Title:  "Fig 12: NoC area and static power vs cluster count",
		Paper:  "Area -45/-50/-45% and static power -15/-16/-14% for C5/C10/C20",
		Run:    runFig12,
		Claims: fig12Claims,
	})
	register(Experiment{
		ID:     "fig13b",
		Title:  "Fig 13b: maximum crossbar operating frequency by size",
		Paper:  "80x32 and 80x40 cannot run 2x700MHz; 2x1 and 8x4 can",
		Run:    runFig13b,
		Claims: fig13bClaims,
	})
	register(Experiment{
		ID:     "fig18b",
		Title:  "Fig 18b: area overhead/savings of Sh40+C10+Boost",
		Paper:  "Queues +6.25%, cache -8%, NoC -50%",
		Run:    runFig18b,
		Claims: fig18bClaims,
	})
}

func runTab1(ctx *Context) *Table {
	cfg := paperCfg()
	t := &Table{
		ID:      "tab1",
		Title:   "NoC configuration and peak L1 bandwidth",
		Columns: []string{"NoC1 xbars", "NoC2 xbars", "PeakBW B/cyc", "BW drop x"},
	}
	// Peak L1 bandwidth: one 128 B line per DC-L1 node per core cycle at the
	// cache; the baseline's 80 private L1s set the reference. The additional
	// factor 4 for decoupled designs is the 32 B NoC#1 link serialization of
	// a 128 B line (Table I note).
	basePeak := float64(cfg.Cores * mem.LineBytes)
	t.Rows = append(t.Rows, Row{Label: "Baseline", Cells: []float64{0, 80 * 32, basePeak, 1}})
	for _, y := range []int{80, 40, 20, 10} {
		peak := float64(y * mem.LineBytes)
		drop := basePeak / peak * 4 // x4: 32B link serialization of replies
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("Pr%d", y),
			Cells: []float64{float64(cfg.Cores/y) * 1, float64(y * 32), peak, drop},
		})
	}
	t.Notes = append(t.Notes,
		"paper Table I: drop factors 4x (Pr80), 8x (Pr40), 16x (Pr20), 32x (Pr10)")
	return t
}

func runFig6(ctx *Context) *Table {
	cfg := paperCfg()
	baseSpec := gpu.DesignNoCSpec(cfg, mustDesign("Baseline"))
	t := &Table{
		ID:      "fig6",
		Title:   "NoC area and static power, normalized to baseline",
		Columns: []string{"area", "static"},
	}
	for _, y := range []int{80, 40, 20, 10} {
		spec := gpu.DesignNoCSpec(cfg, mustDesign(fmt.Sprintf("Pr%d", y)))
		area := spec.Area() / baseSpec.Area()
		static := spec.StaticPower() / baseSpec.StaticPower()
		t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("Pr%d", y), Cells: []float64{area, static}})
	}
	shSpec := gpu.DesignNoCSpec(cfg, mustDesign("Sh40"))
	t.Rows = append(t.Rows, Row{Label: "Sh40", Cells: []float64{
		shSpec.Area() / baseSpec.Area(), shSpec.StaticPower() / baseSpec.StaticPower()}})
	t.Notes = append(t.Notes, "Sh40: paper static 1.57 (Section V-B)")
	return t
}

// fig6Sh40Area is the paper's "the full crossbar costs far more NoC area".
var fig6Sh40Area = band{1.3, 2.1, "1.69"}

var fig6Claims = []Claim{
	{Name: "fig6/private-area-falls", Check: func(t *Table) (bool, string) {
		ok, reading := descending(1, t.Cell("Pr40", "area"), t.Cell("Pr20", "area"), t.Cell("Pr10", "area"))
		return ok, "1 > Pr40 > Pr20 > Pr10: " + reading + " (paper 1 > 0.72 > 0.46 > 0.33)"
	}},
	cellsIn("fig6/sh40-area", false, "area", fig6Sh40Area, "Sh40"),
}

func runFig12(ctx *Context) *Table {
	cfg := paperCfg()
	baseSpec := gpu.DesignNoCSpec(cfg, mustDesign("Baseline"))
	t := &Table{
		ID:      "fig12",
		Title:   "NoC area and static power vs cluster count, normalized",
		Columns: []string{"area", "static"},
	}
	paper := map[int][2]float64{1: {1.69, 1.57}, 5: {0.55, 0.85}, 10: {0.50, 0.84}, 20: {0.55, 0.86}, 40: {0.72, 0.96}}
	for _, z := range []int{1, 5, 10, 20, 40} {
		name := fmt.Sprintf("Sh40+C%d", z)
		switch z {
		case 1:
			name = "Sh40"
		case 40:
			name = "Pr40"
		}
		spec := gpu.DesignNoCSpec(cfg, mustDesign(name))
		area := spec.Area() / baseSpec.Area()
		static := spec.StaticPower() / baseSpec.StaticPower()
		t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("C%d", z), Cells: []float64{area, static}})
		p := paper[z]
		t.Notes = append(t.Notes, fmt.Sprintf("C%d: paper area %.2f static %.2f; model %.2f %.2f", z, p[0], p[1], area, static))
	}
	return t
}

// fig12C10Area is the paper's "clustering halves the NoC area".
var fig12C10Area = band{0, 0.7, "0.50"}

var fig12Claims = []Claim{
	cellsIn("fig12/c10-area", false, "area", fig12C10Area, "C10"),
	{Name: "fig12/c10-minimum", Check: func(t *Table) (bool, string) {
		aRow, _ := colMin(t, "area")
		sRow, _ := colMin(t, "static")
		return aRow == "C10" && sRow == "C10", fmt.Sprintf("least area %s, least static power %s (paper C10, C10)", aRow, sRow)
	}},
}

func runFig13b(ctx *Context) *Table {
	t := &Table{
		ID:      "fig13b",
		Title:   "Maximum crossbar operating frequency (MHz)",
		Columns: []string{"fmax MHz", "can 2x700"},
	}
	sizes := [][2]int{{2, 1}, {8, 4}, {10, 8}, {40, 32}, {80, 32}, {80, 40}}
	for _, s := range sizes {
		f := power.MaxFreqMHz(s[0], s[1])
		can := 0.0
		if f >= 2*gpu.NoCMHz {
			can = 1
		}
		t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("%dx%d", s[0], s[1]), Cells: []float64{f, can}})
	}
	return t
}

// fig13bFeasible lists the crossbars the paper finds able to run NoC#1 at
// 2x700 MHz; every other size in the table must not.
var fig13bFeasible = []string{"2x1", "8x4"}

var fig13bClaims = []Claim{
	{Name: "fig13b/feasibility", Check: func(t *Table) (bool, string) {
		ok := true
		var can []string
		for _, r := range rowLabels(t) {
			v := t.Cell(r, "can 2x700")
			ok = ok && (v == 1) == slices.Contains(fig13bFeasible, r)
			if v == 1 {
				can = append(can, r)
			}
		}
		return ok, fmt.Sprintf("sustain 2x700 MHz: %s (paper %s)", list(can), list(fig13bFeasible))
	}},
}

func runFig18b(ctx *Context) *Table {
	cfg := paperCfg()
	totalL1 := cfg.Cores * cfg.L1KB * 1024
	baseCache := power.CacheArea(totalL1, cfg.Cores)
	aggCache := power.CacheArea(totalL1, 40)
	queues := power.QueueArea(40)
	baseNoC := gpu.DesignNoCSpec(cfg, mustDesign("Baseline"))
	oursNoC := gpu.DesignNoCSpec(cfg, mustDesign("Sh40+C10+Boost"))
	t := &Table{
		ID:      "fig18b",
		Title:   "Sh40+C10+Boost area vs baseline (ratios)",
		Columns: []string{"ratio"},
	}
	t.Rows = append(t.Rows,
		Row{Label: "DC-L1 node queues", Cells: []float64{queues / float64(totalL1)}},
		Row{Label: "cache area", Cells: []float64{aggCache / baseCache}},
		Row{Label: "NoC area", Cells: []float64{oursNoC.Area() / baseNoC.Area()}},
	)
	return t
}

// fig18b's bands sit around the paper's own readings.
var (
	fig18bQueues = band{0.0525, 0.0725, "0.0625"}
	fig18bCache  = band{0.85, 0.95, "0.92"}
	fig18bNoC    = band{0.45, 0.6, "0.50"}
)

var fig18bClaims = []Claim{
	cellsIn("fig18b/queue-overhead", false, "ratio", fig18bQueues, "DC-L1 node queues"),
	cellsIn("fig18b/cache-area", false, "ratio", fig18bCache, "cache area"),
	cellsIn("fig18b/noc-area", false, "ratio", fig18bNoC, "NoC area"),
}

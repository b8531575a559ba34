package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "sec2c", "tab1", "fig4", "fig6", "fig8", "fig9",
		"fig11", "fig12", "fig13a", "fig13b", "fig14", "fig15", "fig16",
		"fig17", "fig18a", "fig18b", "lat", "fig19a", "fig19b", "cta",
		"size", "boostbase", "ext-prefetch", "ext-analytic", "ext-multiprog", "ext-mesh", "ext-writeback",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s missing", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	for _, e := range All() {
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
}

func TestStaticExperimentsRun(t *testing.T) {
	ctx := QuickContext()
	for _, id := range []string{"tab1", "fig6", "fig12", "fig13b", "fig18b"} {
		e, _ := ByID(id)
		table := e.Run(ctx)
		if len(table.Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
		for _, r := range table.Rows {
			for _, v := range r.Cells {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s row %s has invalid cell", id, r.Label)
				}
			}
		}
	}
}

func TestStaticShapesMatchPaper(t *testing.T) {
	ctx := QuickContext()
	fig6, _ := ByID("fig6")
	tb := fig6.Run(ctx)
	// Areas must fall with aggregation and Sh40 must exceed baseline.
	if !(tb.Cell("Pr40", "area") < 1 && tb.Cell("Pr20", "area") < tb.Cell("Pr40", "area")) {
		t.Error("fig6: private-design area ordering wrong")
	}
	if tb.Cell("Sh40", "area") < 1.3 {
		t.Errorf("fig6: Sh40 area %.2f must be well above baseline", tb.Cell("Sh40", "area"))
	}
	fig12, _ := ByID("fig12")
	tc := fig12.Run(ctx)
	if !(tc.Cell("C10", "area") < 0.7) {
		t.Errorf("fig12: C10 area %.2f must save ~50%%", tc.Cell("C10", "area"))
	}
	fig13b, _ := ByID("fig13b")
	td := fig13b.Run(ctx)
	if td.Cell("8x4", "can 2x700") != 1 || td.Cell("80x40", "can 2x700") != 0 {
		t.Error("fig13b: boost feasibility wrong")
	}
	fig18b, _ := ByID("fig18b")
	te := fig18b.Run(ctx)
	if v := te.Cell("cache area", "ratio"); v > 0.95 {
		t.Errorf("fig18b: aggregated cache area ratio %.2f, want ~0.92", v)
	}
	if v := te.Cell("DC-L1 node queues", "ratio"); math.Abs(v-0.0625) > 0.01 {
		t.Errorf("fig18b: queue overhead %.4f, want ~0.0625", v)
	}
}

// TestQuickDynamicExperiments smoke-runs the cheap simulation-backed
// experiments on the small machine. Shapes on the quick machine are not
// asserted against the paper (that is EXPERIMENTS.md's job on the 80-core
// machine); only integrity is checked.
func TestQuickDynamicExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments need a few seconds")
	}
	ctx := QuickContext()
	for _, id := range []string{"sec2c", "fig8", "fig14"} {
		e, _ := ByID(id)
		table := e.Run(ctx)
		if len(table.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
		for _, r := range table.Rows {
			for _, v := range r.Cells {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("%s row %q: invalid cell %v", id, r.Label, v)
				}
			}
		}
	}
}

func TestMemoization(t *testing.T) {
	if testing.Short() {
		t.Skip("needs simulation")
	}
	ctx := QuickContext()
	e, _ := ByID("fig8")
	t1 := e.Run(ctx)
	// Second run must come from the memo and be identical.
	t2 := e.Run(ctx)
	for i := range t1.Rows {
		for j := range t1.Rows[i].Cells {
			if t1.Rows[i].Cells[j] != t2.Rows[i].Cells[j] {
				t.Fatal("memoized rerun diverged")
			}
		}
	}
}

// TestContextRunSurvivesPanickingLabel: the memo key reads the app's label
// outside the supervisor's panic barrier, so it must read it through JobKey's
// guard. A panicking Label becomes one recorded Failure — once, memoized —
// on the serial path and in collect mode, not a crashed sweep.
func TestContextRunSurvivesPanickingLabel(t *testing.T) {
	for _, workers := range []int{1, 2} {
		ctx := QuickContext()
		ctx.Workers = workers
		e := Experiment{ID: "label-panic", Run: func(ctx *Context) *Table {
			ctx.runDefault(base(), supPanicApp{})
			ctx.runDefault(base(), supPanicApp{})
			return &Table{}
		}}
		ctx.RunExperiment(e)
		fails := ctx.Failures()
		if len(fails) != 1 || fails[0].App != "<unlabeled>" {
			t.Fatalf("workers=%d: failures = %+v, want one for <unlabeled>", workers, fails)
		}
	}
}

// TestRunExperimentParallelMatchesSerial pins the batched-prefetch contract:
// a Workers>1 context produces tables bit-identical to the serial path, and
// the real pass finds every run already memoized.
func TestRunExperimentParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("needs simulation")
	}
	for _, id := range []string{"fig8", "fig14"} {
		e, _ := ByID(id)
		serial := QuickContext()
		t1 := e.Run(serial)
		par := QuickContext()
		par.Workers = 4
		t2 := par.RunExperiment(e)
		if len(serial.Failures()) != 0 || len(par.Failures()) != 0 {
			t.Fatalf("%s: unexpected failures: %v / %v", id, serial.Failures(), par.Failures())
		}
		if len(t1.Rows) != len(t2.Rows) {
			t.Fatalf("%s: row counts differ: %d vs %d", id, len(t1.Rows), len(t2.Rows))
		}
		for i := range t1.Rows {
			if t1.Rows[i].Label != t2.Rows[i].Label {
				t.Fatalf("%s: row %d label %q vs %q", id, i, t1.Rows[i].Label, t2.Rows[i].Label)
			}
			for j := range t1.Rows[i].Cells {
				if t1.Rows[i].Cells[j] != t2.Rows[i].Cells[j] {
					t.Fatalf("%s: cell (%d,%d) differs: %v vs %v",
						id, i, j, t1.Rows[i].Cells[j], t2.Rows[i].Cells[j])
				}
			}
		}
	}
}

func TestTableRenderAndCell(t *testing.T) {
	tb := &Table{
		ID: "x", Title: "demo", Columns: []string{"a", "b"},
		Rows:  []Row{{Label: "r1", Cells: []float64{1, 2}}},
		Notes: []string{"hello"},
	}
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"demo", "r1", "hello", "1.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if tb.Cell("r1", "b") != 2 {
		t.Error("Cell lookup failed")
	}
	if !math.IsNaN(tb.Cell("r1", "nope")) || !math.IsNaN(tb.Cell("nope", "a")) {
		t.Error("missing cells must be NaN")
	}
}

func TestGeomeanAndMean(t *testing.T) {
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean = %f", g)
	}
	if geomean(nil) != 0 || geomean([]float64{1, 0}) != 0 {
		t.Error("degenerate geomean must be 0")
	}
	if m := mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("mean = %f", m)
	}
	if mean(nil) != 0 {
		t.Error("empty mean must be 0")
	}
}

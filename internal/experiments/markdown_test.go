package experiments

import (
	"strings"
	"testing"
)

func TestTableMarkdown(t *testing.T) {
	tb := &Table{
		ID: "figX", Title: "demo table", Columns: []string{"a", "b"},
		Rows: []Row{
			{Label: "r1", Cells: []float64{1.25, 2}},
			{Label: "r2", Cells: []float64{3, 4}},
		},
		Notes: []string{"paper: something"},
	}
	var sb strings.Builder
	tb.Markdown(&sb)
	out := sb.String()
	for _, want := range []string{
		"### figX — demo table",
		"| | a | b |",
		"|---|---|---|",
		"| r1 | 1.250 | 2.000 |",
		"> paper: something",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestExtPrefetchExperimentRegistered(t *testing.T) {
	e, ok := ByID("ext-prefetch")
	if !ok {
		t.Fatal("ext-prefetch missing")
	}
	if testing.Short() {
		t.Skip("simulation")
	}
	tb := QuickContext().RunExperiment(e)
	if len(tb.Rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestSCurveRendering(t *testing.T) {
	tb := &Table{
		ID: "s", Title: "curve", Columns: []string{"speedup"},
		Rows: []Row{
			{Label: "a", Cells: []float64{0.5}},
			{Label: "b", Cells: []float64{1.0}},
			{Label: "c", Cells: []float64{2.0}},
			{Label: "d", Cells: []float64{4.0}},
		},
	}
	var sb strings.Builder
	SCurve(&sb, tb, "speedup", 6)
	out := sb.String()
	if !strings.Contains(out, "*") || !strings.Contains(out, "0.50 .. 4.00") {
		t.Fatalf("curve missing marks:\n%s", out)
	}
	// Reference line at 1.0 must appear (value range brackets it).
	if !strings.Contains(out, "-") {
		t.Fatal("baseline reference line missing")
	}
	var sb2 strings.Builder
	SCurve(&sb2, tb, "nope", 6)
	if !strings.Contains(sb2.String(), "no data") {
		t.Fatal("missing-column message absent")
	}
}

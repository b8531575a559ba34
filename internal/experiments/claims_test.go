package experiments

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// tier1Figures are the figures whose Tier1 claims TestPaperShapes checks.
var tier1Figures = []string{"fig8", "fig9", "fig11", "fig14"}

// TestPaperShapes is the model-fidelity gate: fig8, fig9, fig11 and fig14 on
// the paper's 80-core machine, with the windows cut to 4k + 10k core cycles,
// through one memo (fig11's C1/C10/C40 are fig14's points), checked against
// every Tier1 claim. The full-window claims run in `dcl1bench -run all`.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the 80-core machine")
	}
	if raceEnabled {
		t.Skip("the race detector multiplies simulation time; TestRunExperimentParallelMatchesSerial covers the batch path under -race")
	}
	ctx := NewContext()
	ctx.Base.WarmupCycles, ctx.Base.MeasureCycles = 4000, 10000
	for _, id := range tier1Figures {
		e, _ := ByID(id)
		table := ctx.RunExperiment(e)
		n := 0
		for i, v := range e.Verdicts(table) {
			if !e.Claims[i].Tier1 {
				continue
			}
			n++
			if v.OK {
				t.Log(v)
			} else {
				t.Error(v)
			}
		}
		if n == 0 {
			t.Errorf("%s has no Tier1 claim", id)
		}
	}
	if fails := ctx.Failures(); len(fails) > 0 {
		t.Fatalf("failed points: %+v", fails)
	}
}

// TestStaticClaims checks every claim of every experiment that simulates
// nothing (the NoC, area and frequency models): a collect pass that records
// no point is already the answer.
func TestStaticClaims(t *testing.T) {
	static := 0
	for _, e := range All() {
		ctx := NewContext()
		table := e.Run(ctx)
		if len(ctx.pending) > 0 {
			continue
		}
		static++
		for _, v := range e.Verdicts(table) {
			if v.OK {
				t.Log(v)
			} else {
				t.Error(v)
			}
		}
	}
	if static == 0 {
		t.Fatal("no static experiment found")
	}
}

// TestClaimNames: every claim is named "<experiment id>/<shape>", once,
// with a check; only the figures TestPaperShapes runs carry Tier1 claims.
func TestClaimNames(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		for _, c := range e.Claims {
			id, shape, _ := strings.Cut(c.Name, "/")
			if id != e.ID || !regexp.MustCompile(`^[a-z0-9-]+$`).MatchString(shape) || c.Check == nil {
				t.Errorf("%s: malformed claim %q", e.ID, c.Name)
			}
			if seen[c.Name] {
				t.Errorf("claim %s declared twice", c.Name)
			}
			seen[c.Name] = true
			if c.Tier1 && !slices.Contains(tier1Figures, e.ID) {
				t.Errorf("%s is Tier1, but TestPaperShapes does not run %s", c.Name, e.ID)
			}
		}
	}
}

// TestExperimentsDocCitesClaims holds EXPERIMENTS.md and the registry to one
// list of claims: every claim is cited there by name, and every backticked
// "<experiment id>/<shape>" there is a claim.
func TestExperimentsDocCitesClaims(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	claims := map[string]bool{}
	var names []string
	for _, e := range All() {
		for _, c := range e.Claims {
			claims[c.Name] = true
			names = append(names, c.Name)
		}
	}
	cited := map[string]bool{}
	for _, m := range regexp.MustCompile("`([a-z0-9-]+)/([a-z0-9-]+)`").FindAllStringSubmatch(string(doc), -1) {
		if _, ok := ByID(m[1]); !ok {
			continue // a path, not a claim
		}
		name := m[1] + "/" + m[2]
		cited[name] = true
		if !claims[name] {
			t.Errorf("EXPERIMENTS.md cites %s, which no experiment claims", name)
		}
	}
	for _, name := range names {
		if !cited[name] {
			t.Errorf("claim %s is not cited in EXPERIMENTS.md", name)
		}
	}
}

package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Claim is one of the paper's shapes, checked against the table its
// experiment prints. Check is a pure function of that table: it reads cells
// through Table.Cell, so a test and dcl1bench evaluate a claim the same way
// and no claim runs a point of its own.
type Claim struct {
	// Name is "<experiment id>/<shape>". EXPERIMENTS.md cites every claim
	// by this name, and a test holds the two lists equal.
	Name string
	// Tier1 marks a simulated figure's claim that also holds at the
	// shortened windows the tier-1 test runs (4k + 10k core cycles); the
	// rest are checked at full windows, by dcl1bench. Claims of experiments
	// that simulate nothing run in tier-1 whatever this says.
	Tier1 bool
	// Check returns whether the shape holds and one line reading the cells
	// it looked at, for example "1.898 > 1.753 > 1.561 > 1.167 > 1".
	Check func(t *Table) (ok bool, reading string)
}

// Verdict is one claim evaluated against one table.
type Verdict struct {
	Claim   string
	OK      bool
	Reading string
}

func (v Verdict) String() string {
	word := "PASS"
	if !v.OK {
		word = "FAIL"
	}
	return fmt.Sprintf("%s %s: %s", word, v.Claim, v.Reading)
}

// Verdicts evaluates every claim of e against t, in declaration order.
func (e Experiment) Verdicts(t *Table) []Verdict {
	out := make([]Verdict, len(e.Claims))
	for i, c := range e.Claims {
		ok, reading := c.Check(t)
		out[i] = Verdict{Claim: c.Name, OK: ok, Reading: reading}
	}
	return out
}

// band is a two-sided tolerance on one reading. Where the model matches
// the paper, Lo and Hi are the paper's own range. Where it does not — a
// known gap — they bracket today's reading, so the gap may move neither
// toward the paper nor away from it without someone re-reading the
// mechanism and moving the band on purpose. Paper is the paper's reading,
// printed beside the band.
type band struct {
	Lo, Hi float64
	Paper  string
}

// holds is false for NaN: a missing cell never passes.
func (b band) holds(v float64) bool { return v >= b.Lo && v <= b.Hi }

func (b band) String() string {
	return fmt.Sprintf("in [%.3g, %.3g] (paper %s)", b.Lo, b.Hi, b.Paper)
}

// cellsIn claims that column col of every named row lies in b.
func cellsIn(name string, tier1 bool, col string, b band, rows ...string) Claim {
	return Claim{Name: name, Tier1: tier1, Check: func(t *Table) (bool, string) {
		ok := true
		parts := make([]string, len(rows))
		for i, r := range rows {
			v := t.Cell(r, col)
			ok = ok && b.holds(v)
			parts[i] = fmt.Sprintf("%s %.3f", r, v)
		}
		return ok, strings.Join(parts, ", ") + " " + b.String()
	}}
}

// maxIn claims that the largest value of column col lies in b.
func maxIn(name, col string, b band) Claim {
	return Claim{Name: name, Check: func(t *Table) (bool, string) {
		row, v := colMax(t, col)
		return b.holds(v), fmt.Sprintf("max %.3f (%s) %s", v, row, b)
	}}
}

// descending claims vs[0] > vs[1] > ... and reads them that way.
func descending(vs ...float64) (bool, string) {
	ok := true
	parts := make([]string, len(vs))
	for i, v := range vs {
		if i > 0 && !(vs[i-1] > v) {
			ok = false
		}
		parts[i] = fmt.Sprintf("%.3f", v)
		if v == math.Trunc(v) {
			parts[i] = fmt.Sprint(v) // a reference such as 1
		}
	}
	return ok, strings.Join(parts, " > ")
}

// list joins names for a reading, "none" when empty.
func list(names []string) string {
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, ", ")
}

// rowLabels returns the labels of t's rows, minus any excluded ones.
func rowLabels(t *Table, exclude ...string) []string {
	var out []string
	for _, r := range t.Rows {
		if !slices.Contains(exclude, r.Label) {
			out = append(out, r.Label)
		}
	}
	return out
}

// colMax returns the largest value of column col and its row.
func colMax(t *Table, col string) (string, float64) {
	return colExtreme(t, col, func(a, b float64) bool { return a > b })
}

// colMin returns the smallest value of column col and its row.
func colMin(t *Table, col string) (string, float64) {
	return colExtreme(t, col, func(a, b float64) bool { return a < b })
}

func colExtreme(t *Table, col string, better func(a, b float64) bool) (string, float64) {
	label, best := "", math.NaN()
	for _, r := range rowLabels(t) {
		if v := t.Cell(r, col); label == "" || better(v, best) {
			label, best = r, v
		}
	}
	return label, best
}

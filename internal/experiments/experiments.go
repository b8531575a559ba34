// Package experiments regenerates every table and figure of the paper's
// evaluation: each experiment is a named runner that executes the required
// (app × design) simulations — memoized, since many figures share runs — and
// emits a Table whose rows mirror what the paper plots, alongside the
// paper-reported values for comparison.
package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"dcl1sim/internal/gpu"
	"dcl1sim/internal/stats"
	"dcl1sim/internal/workload"
)

// Table is the output of one experiment.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    []Row
	Notes   []string // paper-vs-measured commentary
}

// Row is one labeled series of values.
type Row struct {
	Label string
	Cells []float64
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(w, "%-22s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(w, "%14s", c)
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-22s", r.Label)
		for _, v := range r.Cells {
			fmt.Fprintf(w, "%14.3f", v)
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// Markdown writes the table as a GitHub-flavored markdown table
// (dcl1bench -format md; CI's fidelity job uploads the full evaluation).
func (t *Table) Markdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "| |")
	for _, c := range t.Columns {
		fmt.Fprintf(w, " %s |", c)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "|---|")
	for range t.Columns {
		fmt.Fprintf(w, "---|")
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "| %s |", r.Label)
		for _, v := range r.Cells {
			fmt.Fprintf(w, " %.3f |", v)
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n> %s\n", n)
	}
	fmt.Fprintln(w)
}

// Cell returns the value at (rowLabel, col), NaN when absent.
func (t *Table) Cell(rowLabel, col string) float64 {
	ci := -1
	for i, c := range t.Columns {
		if c == col {
			ci = i
			break
		}
	}
	if ci < 0 {
		return math.NaN()
	}
	for _, r := range t.Rows {
		if r.Label == rowLabel && ci < len(r.Cells) {
			return r.Cells[ci]
		}
	}
	return math.NaN()
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string
	Title string
	Paper string // the headline result the paper reports for this artifact
	Run   func(ctx *Context) *Table
	// Claims are the paper's shapes checked against Run's table.
	Claims []Claim
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment, sorted by ID.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Context is a memo over one Supervisor: it carries the machine
// configuration, remembers every point's Results (figures 14–17 share most
// of their runs), and hands each batch of memo misses to Sup. An experiment
// never simulates directly — see RunExperiment.
type Context struct {
	Base gpu.Config
	// Design, when non-nil, overlays every design just before it is keyed
	// and simulated — dcl1bench sets it to its spec's module-fill rule
	// (serve.SweepSpec.FillModules), the one SweepSpec.Jobs applies. The
	// overlay is part of the memo key, so overlaid and plain runs never
	// alias.
	Design func(gpu.Design) gpu.Design
	// Sup runs every simulation and owns how: health options (chaos and
	// power cap included), workers, retries, deadline, journal, progress.
	// Its PointKey is also the memo key.
	Sup *Supervisor

	memo     map[string]gpu.Results
	failures []Failure
	// The current pass's memo misses, deduplicated, in the order the
	// experiment met them.
	pending     []gpu.Job
	pendingSeen map[string]bool
}

// Failure records one simulation that aborted with a health error. The
// experiment's table gets zero cells for that run; the failure is reported so
// sweeps degrade loudly instead of silently.
type Failure struct {
	Design string
	App    string
	Err    error
}

// Failures returns the health failures recorded so far, in run order.
func (ctx *Context) Failures() []Failure { return ctx.failures }

// NewContext builds a context around the 80-core default machine with the
// experiment-suite measurement windows.
func NewContext() *Context {
	return newContext(gpu.Config{WarmupCycles: 12000, MeasureCycles: 28000})
}

// QuickContext shrinks windows and the machine for smoke tests.
func QuickContext() *Context {
	return newContext(gpu.Config{
		Cores: 16, L2Slices: 8, Channels: 4,
		WarmupCycles: 1500, MeasureCycles: 4000,
	})
}

func newContext(cfg gpu.Config) *Context {
	return &Context{Base: cfg.WithDefaults(), Sup: &Supervisor{},
		memo: map[string]gpu.Results{}, pendingSeen: map[string]bool{}}
}

// run returns the memoized Results of one point. A miss simulates nothing:
// it is recorded once for the pass's batch and reads as zero Results until
// RunExperiment has run that batch.
func (ctx *Context) run(cfg gpu.Config, d gpu.Design, app workload.Source) gpu.Results {
	if ctx.Design != nil {
		d = ctx.Design(d)
	}
	// PointKey reads the label through a guard: a panicking Label must
	// become this point's Failure, not kill the sweep.
	j := gpu.Job{Cfg: cfg, D: d, App: app}
	key := ctx.Sup.key(j)
	if r, ok := ctx.memo[key]; ok {
		return r
	}
	if !ctx.pendingSeen[key] {
		ctx.pendingSeen[key] = true
		ctx.pending = append(ctx.pending, j)
	}
	return gpu.Results{}
}

// runDefault runs on the context's base machine.
func (ctx *Context) runDefault(d gpu.Design, app workload.Source) gpu.Results {
	return ctx.run(ctx.Base, d, app)
}

// vs is one cell of a simulated figure: d's IPC and L1 miss rate over ref's,
// for one app on cfg's machine. It runs ref first and then d. A reference
// that never misses gives a miss ratio of 0 (no reference run of the suite
// has a zero miss rate at either window, so no table shows that rule). Every
// ratio a figure reports between two runs is computed here.
func (ctx *Context) vs(cfg gpu.Config, ref, d gpu.Design, app workload.Source) (ipc, miss float64) {
	r := ctx.run(cfg, ref, app)
	x := ctx.run(cfg, d, app)
	if r.L1MissRate > 0 {
		miss = x.L1MissRate / r.L1MissRate
	}
	return x.IPC / r.IPC, miss
}

// gain is d's vs against Baseline across apps on cfg's machine, in app
// order: the geomean of the IPC ratios and the mean of the miss ratios.
func (ctx *Context) gain(cfg gpu.Config, d gpu.Design, apps []workload.Spec) (ipc, miss float64) {
	base := ctx.design("Baseline")
	ipcs := make([]float64, len(apps))
	misses := make([]float64, len(apps))
	for i, app := range apps {
		ipcs[i], misses[i] = ctx.vs(cfg, base, d, app)
	}
	return stats.Geomean(ipcs), stats.Mean(misses)
}

// gainRows is one row per app of each named design's IPC over Baseline on
// the context's machine.
func (ctx *Context) gainRows(apps []workload.Spec, names ...string) []Row {
	base := ctx.design("Baseline")
	rows := make([]Row, len(apps))
	for i, app := range apps {
		cells := make([]float64, len(names))
		for j, name := range names {
			cells[j], _ = ctx.vs(ctx.Base, base, ctx.design(name), app)
		}
		rows[i] = Row{Label: app.Name, Cells: cells}
	}
	return rows
}

// geomeanRow is the row of rows' column geomeans, each taken in row order.
func geomeanRow(label string, rows []Row) Row {
	out := Row{Label: label}
	for c := 0; len(rows) > 0 && c < len(rows[0].Cells); c++ {
		col := make([]float64, len(rows))
		for i, r := range rows {
			col[i] = r.Cells[c]
		}
		out.Cells = append(out.Cells, stats.Geomean(col))
	}
	return out
}

// replicas is d's mean replicas per line across apps on the context's
// machine.
func (ctx *Context) replicas(d gpu.Design, apps []workload.Spec) float64 {
	reps := make([]float64, len(apps))
	for i, app := range apps {
		reps[i] = ctx.runDefault(d, app).MeanReplicas
	}
	return stats.Mean(reps)
}

// appsNamed is the named apps, in the given order; the names are written
// in this package.
func appsNamed(names ...string) []workload.Spec {
	apps := make([]workload.Spec, len(names))
	for i, name := range names {
		app, ok := workload.ByName(name)
		if !ok {
			panic("experiments: unknown app " + name)
		}
		apps[i] = app
	}
	return apps
}

// RunExperiment executes e as collect → batch → render: a pass of e.Run
// records every memo miss, Sup.RunAll simulates them as one batch, and the
// pass repeats until it records no miss — that pass's table is the answer
// (one batch, since no registered experiment picks points by results). A
// failed point memoizes zero Results (the table shows the hole, once) and
// records one Failure. Jobs start in the order e met them and each
// simulation is deterministic, so tables and failures are the same for any
// worker count, and one worker runs points in simulate-on-miss order.
func (ctx *Context) RunExperiment(e Experiment) *Table {
	for {
		t := e.Run(ctx)
		if len(ctx.pending) == 0 {
			return t
		}
		jobs := ctx.pending
		ctx.pending = nil
		clear(ctx.pendingSeen)
		results, errs := ctx.Sup.RunAll(jobs)
		for i, j := range jobs {
			if errs[i] != nil {
				ctx.failures = append(ctx.failures, Failure{Design: j.D.Name(), App: gpu.SafeLabel(j.App), Err: errs[i]})
			}
			ctx.memo[ctx.Sup.key(j)] = results[i]
		}
	}
}

// scaledDesign adapts the canonical 80-core design shapes (40 DC-L1s, 10
// clusters, CDXBar 10×4) to the context's core count so QuickContext works.
func (ctx *Context) scaledDesign(d gpu.Design) gpu.Design {
	scale := float64(ctx.Base.Cores) / 80.0
	if d.DCL1s > 0 {
		d.DCL1s = max(1, int(float64(d.DCL1s)*scale))
	}
	if d.Clusters > 1 {
		d.Clusters = max(1, int(float64(d.Clusters)*scale))
	}
	if d.Kind == gpu.CDXBar {
		if d.CDXGroups <= 0 {
			d.CDXGroups = 10
		}
		if d.CDXMid <= 0 {
			d.CDXMid = 4
		}
		d.CDXGroups = max(1, int(float64(d.CDXGroups)*scale))
		d.CDXMid = max(1, int(float64(d.CDXMid)*scale))
	}
	return d
}

// design returns the paper's named design (its 80-core shape) adapted to the
// context's machine.
func (ctx *Context) design(name string) gpu.Design { return ctx.scaledDesign(mustDesign(name)) }

// mustDesign parses a design name written in this package.
func mustDesign(name string) gpu.Design {
	d, err := gpu.ParseDesign(name)
	if err != nil {
		panic(err)
	}
	return d
}

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
	"strings"
	"time"

	"dcl1sim/internal/gpu"
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

// Markdown writes the table as a GitHub-flavored markdown table (used to
// generate EXPERIMENTS.md entries).
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

// Context carries the machine configuration and memoizes simulation runs
// (figures 14–17 share most of their runs).
type Context struct {
	Base gpu.Config
	memo map[string]gpu.Results
	// Progress, when non-nil, receives a line per fresh simulation.
	Progress io.Writer
	// Health configures the watchdog every simulation runs under. The zero
	// value is the default stall window with no wall-clock deadline.
	Health gpu.HealthOptions
	// Workers sets the parallelism of RunExperiment's batched prefetch:
	// with Workers > 1 the experiment's fresh simulations run concurrently
	// (deduplicated against the memo) before the experiment assembles its
	// table. 0 or 1 keeps the fully serial behavior.
	Workers int
	// Journal, when non-nil, makes the sweep resumable: completed points are
	// persisted and skipped on the next run (see OpenJournal).
	Journal *Journal
	// Retry re-attempts transiently failed points (deadline overruns) with
	// capped exponential backoff. The zero value never retries.
	Retry RetryPolicy
	// PointDeadline bounds each individual simulation's wall clock on top of
	// Health.Deadline (the tighter wins). 0 means unbounded.
	PointDeadline time.Duration
	// Design, when non-nil, overlays every design just before it is keyed
	// and simulated — dcl1bench sets it to its spec's module-fill rule
	// (serve.SweepSpec.FillModules), the one SweepSpec.Jobs applies. The
	// overlay is part of the memo key, so overlaid and plain runs never
	// alias.
	Design func(gpu.Design) gpu.Design

	failures []Failure

	// Collect mode (see prefetch): ctx.run records memo misses as jobs
	// instead of simulating.
	collecting   bool
	pending      []gpu.Job
	pendingKeys  []string
	pendingNames [][2]string // design name, app label (for failure records)
	pendingSeen  map[string]bool
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
	cfg := gpu.Config{WarmupCycles: 12000, MeasureCycles: 28000}
	return &Context{Base: cfg.WithDefaults(), memo: map[string]gpu.Results{}}
}

// QuickContext shrinks windows and the machine for smoke tests.
func QuickContext() *Context {
	cfg := gpu.Config{
		Cores: 16, L2Slices: 8, Channels: 4,
		WarmupCycles: 1500, MeasureCycles: 4000,
	}
	return &Context{Base: cfg.WithDefaults(), memo: map[string]gpu.Results{}}
}

func (ctx *Context) run(cfg gpu.Config, d gpu.Design, app workload.Source) gpu.Results {
	if ctx.Design != nil {
		d = ctx.Design(d)
	}
	// The memo key is the journal's JobKey, whose label read is guarded: a
	// panicking Label must become this point's Failure, not kill the sweep.
	j := gpu.Job{Cfg: cfg, D: d, App: app}
	key := JobKey(j)
	if r, ok := ctx.memo[key]; ok {
		return r
	}
	if ctx.collecting {
		if !ctx.pendingSeen[key] {
			ctx.pendingSeen[key] = true
			ctx.pending = append(ctx.pending, j)
			ctx.pendingKeys = append(ctx.pendingKeys, key)
			ctx.pendingNames = append(ctx.pendingNames, [2]string{d.Name(), appLabel(app)})
		}
		return gpu.Results{}
	}
	r, err := ctx.supervisor().RunOne(j)
	if err != nil {
		ctx.failures = append(ctx.failures, Failure{Design: d.Name(), App: appLabel(app), Err: err})
		ctx.memo[key] = r // zero Results: the table shows the hole, once
		return r
	}
	ctx.memo[key] = r
	return r
}

// supervisor assembles the sweep supervisor for this context's settings. The
// supervisor owns progress printing, the panic barrier, retries, per-point
// deadlines, and the resume journal; the context keeps the memo and the
// failure list.
func (ctx *Context) supervisor() *Supervisor {
	return &Supervisor{
		Health:        ctx.Health,
		Workers:       ctx.Workers,
		Retry:         ctx.Retry,
		PointDeadline: ctx.PointDeadline,
		Journal:       ctx.Journal,
		Progress:      ctx.Progress,
	}
}

// runDefault runs on the context's base machine.
func (ctx *Context) runDefault(d gpu.Design, app workload.Source) gpu.Results {
	return ctx.run(ctx.Base, d, app)
}

// RunExperiment executes e, filling the memo through the supervisor's RunAll
// when Workers > 1: a collect pass replays the experiment against the memo
// and records every miss as a job (deduplicated), the batch runs across
// Workers goroutines, and the real pass then assembles the table entirely
// from the memo. Each simulation stays single-threaded and deterministic, so
// the table is bit-identical to a serial e.Run(ctx).
func (ctx *Context) RunExperiment(e Experiment) *Table {
	if ctx.Workers > 1 {
		ctx.prefetch(e)
	}
	return e.Run(ctx)
}

// prefetch runs e in collect mode and executes the recorded memo misses as
// one parallel batch. Failures are recorded exactly as the serial path does:
// once per (design, app, config), with zero Results memoized so tables show
// the hole.
func (ctx *Context) prefetch(e Experiment) {
	ctx.collecting = true
	ctx.pendingSeen = map[string]bool{}
	e.Run(ctx) // dry pass: simulates nothing, only records memo misses
	ctx.collecting = false
	jobs, keys, names := ctx.pending, ctx.pendingKeys, ctx.pendingNames
	ctx.pending, ctx.pendingKeys, ctx.pendingNames, ctx.pendingSeen = nil, nil, nil, nil
	if len(jobs) == 0 {
		return
	}
	results, errs := ctx.supervisor().RunAll(jobs)
	for i, key := range keys {
		if errs[i] != nil {
			ctx.failures = append(ctx.failures, Failure{Design: names[i][0], App: names[i][1], Err: errs[i]})
			ctx.memo[key] = gpu.Results{}
			continue
		}
		ctx.memo[key] = results[i]
	}
}

// scaledDesign adapts the canonical 80-core design shapes (40 DC-L1s, 10
// clusters, CDXBar 10×4) to the context's core count so QuickContext works.
func (ctx *Context) scaledDesign(d gpu.Design) gpu.Design {
	scale := float64(ctx.Base.Cores) / 80.0
	if d.DCL1s > 0 {
		d.DCL1s = maxInt(1, int(float64(d.DCL1s)*scale))
	}
	if d.Clusters > 1 {
		d.Clusters = maxInt(1, int(float64(d.Clusters)*scale))
	}
	if d.Kind == gpu.CDXBar {
		if d.CDXGroups <= 0 {
			d.CDXGroups = 10
		}
		if d.CDXMid <= 0 {
			d.CDXMid = 4
		}
		d.CDXGroups = maxInt(1, int(float64(d.CDXGroups)*scale))
		d.CDXMid = maxInt(1, int(float64(d.CDXMid)*scale))
	}
	return d
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Design shorthands (80-core shapes; scaledDesign adapts them).
func base() gpu.Design     { return gpu.Design{Kind: gpu.Baseline} }
func pr(y int) gpu.Design  { return gpu.Design{Kind: gpu.Private, DCL1s: y} }
func sh40() gpu.Design     { return gpu.Design{Kind: gpu.Shared, DCL1s: 40} }
func shc(z int) gpu.Design { return gpu.Design{Kind: gpu.Clustered, DCL1s: 40, Clusters: z} }
func boost() gpu.Design {
	return gpu.Design{Kind: gpu.Clustered, DCL1s: 40, Clusters: 10, Boost1: true}
}

// geomean returns the geometric mean of positive values.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// appNames joins spec names for notes.
func appNames(specs []workload.Spec) string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return strings.Join(names, ", ")
}

package experiments

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcl1sim/internal/core"
	"dcl1sim/internal/gpu"
	"dcl1sim/internal/stats"
	"dcl1sim/internal/workload"
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

// TestQuickDynamicExperiments smoke-runs the cheap simulation-backed
// experiments on the small machine. Shapes on the quick machine are not
// asserted against the paper (the claims are, on the 80-core machine:
// TestPaperShapes and dcl1bench); only integrity is checked.
func TestQuickDynamicExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments need a few seconds")
	}
	ctx := QuickContext()
	for _, id := range []string{"sec2c", "fig8", "fig14"} {
		e, _ := ByID(id)
		table := ctx.RunExperiment(e)
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

// TestMemoization: a second RunExperiment of the same figure is served
// entirely from the memo — no point runs again — and renders the same table.
func TestMemoization(t *testing.T) {
	if testing.Short() {
		t.Skip("needs simulation")
	}
	ctx := QuickContext()
	var progress bytes.Buffer
	ctx.Sup.Progress = &progress
	e, _ := ByID("fig8")
	t1 := ctx.RunExperiment(e)
	if !strings.Contains(progress.String(), "  ran ") {
		t.Fatalf("first run simulated nothing:\n%s", progress.String())
	}
	progress.Reset()
	t2 := ctx.RunExperiment(e)
	if progress.Len() != 0 {
		t.Fatalf("memoized rerun ran points:\n%s", progress.String())
	}
	if !reflect.DeepEqual(t1, t2) {
		t.Fatal("memoized rerun diverged")
	}
}

// TestEveryExperimentCollectsWithoutResults: a collect pass — e.Run against
// an empty memo, every run reading zero Results — must not panic, must not
// simulate, and must record the same pending points each time.
func TestEveryExperimentCollectsWithoutResults(t *testing.T) {
	for _, e := range All() {
		ctx := QuickContext()
		collect := func() []string {
			e.Run(ctx)
			keys := make([]string, len(ctx.pending))
			for i, j := range ctx.pending {
				keys[i] = ctx.Sup.key(j)
			}
			ctx.pending = nil
			clear(ctx.pendingSeen)
			return keys
		}
		first, second := collect(), collect()
		if len(ctx.memo) != 0 {
			t.Errorf("%s: the collect pass memoized %d points", e.ID, len(ctx.memo))
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s: two collect passes recorded different points:\n%v\n%v", e.ID, first, second)
		}
	}
}

// TestContextRunSurvivesPanickingLabel: the memo key reads the app's label
// outside the supervisor's panic barrier, so it must read it through
// PointKey's guard. A panicking Label becomes one recorded Failure — once,
// memoized — for any worker count, not a crashed sweep.
func TestContextRunSurvivesPanickingLabel(t *testing.T) {
	for _, workers := range []int{1, 2} {
		ctx := QuickContext()
		ctx.Sup.Workers = workers
		e := Experiment{ID: "label-panic", Run: func(ctx *Context) *Table {
			ctx.runDefault(ctx.design("Baseline"), supPanicApp{})
			ctx.runDefault(ctx.design("Baseline"), supPanicApp{})
			return &Table{}
		}}
		ctx.RunExperiment(e)
		fails := ctx.Failures()
		if len(fails) != 1 || fails[0].App != "<unlabeled>" {
			t.Fatalf("workers=%d: failures = %+v, want one for <unlabeled>", workers, fails)
		}
	}
}

// TestRunExperimentParallelMatchesSerial pins the batch contract: the same
// figure through RunExperiment at 1 and at 4 workers renders bit-identical
// tables.
func TestRunExperimentParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("needs simulation")
	}
	for _, id := range []string{"fig8", "fig14"} {
		e, _ := ByID(id)
		serial := QuickContext()
		serial.Sup.Workers = 1
		t1 := serial.RunExperiment(e)
		par := QuickContext()
		par.Sup.Workers = 4
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

// pointBarrier releases its parties once two have arrived; a party that
// waits longer than timeout gives up and marks the barrier missed.
type pointBarrier struct {
	mu      sync.Mutex
	arrived int
	all     chan struct{}
	timeout time.Duration
	missed  atomic.Bool
}

func (b *pointBarrier) arrive() {
	b.mu.Lock()
	if b.arrived++; b.arrived == 2 {
		close(b.all)
	}
	b.mu.Unlock()
	select {
	case <-b.all:
	case <-time.After(b.timeout):
		b.missed.Store(true)
	}
}

// barrierApp is a real workload whose point, at its first Program call,
// waits at a barrier shared with another point.
type barrierApp struct {
	workload.Source
	label string
	b     *pointBarrier
	once  *sync.Once
}

func (a barrierApp) Label() string { return a.label }

func (a barrierApp) Program(cores, coreID, waveID int, sched workload.Sched, seed uint64) core.Program {
	a.once.Do(a.b.arrive)
	return a.Source.Program(cores, coreID, waveID, sched, seed)
}

// TestRunExperimentWorkersZeroIsParallel: Workers 0 means GOMAXPROCS, so two
// points of one experiment must be in flight at once — each waits at a
// barrier only the other can release.
func TestRunExperimentWorkersZeroIsParallel(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS >= 2")
	}
	app, _ := workload.ByName("T-AlexNet")
	b := &pointBarrier{all: make(chan struct{}), timeout: 10 * time.Second}
	apps := []workload.Source{
		barrierApp{Source: app, label: "barrier-a", b: b, once: new(sync.Once)},
		barrierApp{Source: app, label: "barrier-b", b: b, once: new(sync.Once)},
	}
	cfg := gpu.Config{Cores: 8, L2Slices: 4, Channels: 2, WarmupCycles: 200, MeasureCycles: 400}
	ctx := QuickContext()
	ctx.Sup.Workers = 0
	ctx.RunExperiment(Experiment{ID: "barrier", Run: func(ctx *Context) *Table {
		for _, a := range apps {
			ctx.run(cfg, ctx.design("Baseline"), a)
		}
		return &Table{}
	}})
	if fails := ctx.Failures(); len(fails) != 0 {
		t.Fatalf("failures: %+v", fails)
	}
	if b.missed.Load() {
		t.Fatal("the two points ran one after the other: -workers 0 must run GOMAXPROCS points at once")
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

// TestGeomeanAndMean pins the aggregates the figures' MEAN rows are built
// from: a zero or empty input yields 0 rather than NaN in a rendered table.
func TestGeomeanAndMean(t *testing.T) {
	if g := stats.Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean = %f", g)
	}
	if stats.Geomean(nil) != 0 || stats.Geomean([]float64{1, 0}) != 0 {
		t.Error("degenerate geomean must be 0")
	}
	if m := stats.Mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("mean = %f", m)
	}
	if stats.Mean(nil) != 0 {
		t.Error("empty mean must be 0")
	}
}

// TestCollectedDesignNames pins the name of every design each experiment's
// collect pass asks for, on the paper's machine and on QuickContext's, in the
// order it asks. A design is its name, so a renamed design is a changed
// point: these are the parent's names, plus the prefetch (+PF2) and
// write-back (+WB) points, which printed as plain Sh40+C10+Boost before.
func TestCollectedDesignNames(t *testing.T) {
	want := map[string][2]string{
		"boostbase":     {"Baseline Baseline+2xL1 Baseline+2xNoC Baseline+2xFlit Sh40+C10+Boost", "Baseline Baseline+2xL1 Baseline+2xNoC Baseline+2xFlit Sh8+C2+Boost"},
		"cta":           {"Baseline Sh40+C10+Boost", "Baseline Sh8+C2+Boost"},
		"ext-analytic":  {"Baseline", "Baseline"},
		"ext-mesh":      {"Baseline MeshBase Sh40+C10+Boost", "Baseline MeshBase Sh8+C2+Boost"},
		"ext-multiprog": {"Baseline Sh40 Sh40+C10+Boost", "Baseline Sh8 Sh8+C2+Boost"},
		"ext-prefetch":  {"Sh40+C10+Boost Sh40+C10+Boost+PF2", "Sh8+C2+Boost Sh8+C2+Boost+PF2"},
		"ext-writeback": {"Sh40+C10+Boost Sh40+C10+Boost+WB", "Sh8+C2+Boost Sh8+C2+Boost+WB"},
		"fig1":          {"Baseline Baseline+16xL1", "Baseline Baseline+16xL1"},
		"fig11":         {"Baseline Sh40 Sh40+C5 Sh40+C10 Sh40+C20 Pr40", "Baseline Sh8 Sh8+C1 Sh8+C2 Sh8+C4 Pr8"},
		"fig12":         {"", ""},
		"fig13a":        {"Baseline Sh40 Sh40+C10 Sh40+C10+Boost", "Baseline Sh8 Sh8+C2 Sh8+C2+Boost"},
		"fig13b":        {"", ""},
		"fig14":         {"Baseline Pr40 Sh40 Sh40+C10 Sh40+C10+Boost", "Baseline Pr8 Sh8 Sh8+C2 Sh8+C2+Boost"},
		"fig15":         {"Baseline Pr40 Sh40 Sh40+C10 Sh40+C10+Boost", "Baseline Pr8 Sh8 Sh8+C2 Sh8+C2+Boost"},
		"fig16":         {"Baseline Pr40 Sh40 Sh40+C10+Boost", "Baseline Pr8 Sh8 Sh8+C2+Boost"},
		"fig17":         {"Baseline Pr40 Sh40 Sh40+C10+Boost", "Baseline Pr8 Sh8 Sh8+C2+Boost"},
		"fig18a":        {"Baseline Sh40+C10+Boost", "Baseline Sh8+C2+Boost"},
		"fig18b":        {"", ""},
		"fig19a":        {"Baseline CDXBar CDXBar+2xNoC1 CDXBar+2xNoC Sh40+C10+Boost", "Baseline CDXBar CDXBar+2xNoC1 CDXBar+2xNoC Sh8+C2+Boost"},
		"fig19b":        {"Baseline Sh40+C10+Boost", "Baseline Sh8+C2+Boost"},
		"fig2":          {"Baseline", "Baseline"},
		"fig4":          {"Baseline Pr80 Pr80+PerfectL1 Pr40 Pr40+PerfectL1 Pr20 Pr20+PerfectL1 Pr10 Pr10+PerfectL1 Baseline+PerfectL1", "Baseline Pr16 Pr16+PerfectL1 Pr8 Pr8+PerfectL1 Pr4 Pr4+PerfectL1 Pr2 Pr2+PerfectL1 Baseline+PerfectL1"},
		"fig6":          {"", ""},
		"fig8":          {"Baseline Sh40", "Baseline Sh8"},
		"fig9":          {"Baseline Sh40", "Baseline Sh8"},
		"lat":           {"Baseline Sh40+C10+Boost Baseline+PerfectL1 Sh40+C10+Boost+PerfectL1", "Baseline Sh8+C2+Boost Baseline+PerfectL1 Sh8+C2+Boost+PerfectL1"},
		"sec2c":         {"Baseline SingleL1", "Baseline SingleL1"},
		"size":          {"Baseline Sh60+C10+Boost", "Baseline Sh12+C2+Boost"},
		"tab1":          {"", ""},
	}
	for i, mk := range []func() *Context{NewContext, QuickContext} {
		for _, e := range All() {
			ctx := mk()
			e.Run(ctx)
			var names []string
			seen := map[string]bool{}
			for _, j := range ctx.pending {
				if n := j.D.Name(); !seen[n] {
					seen[n] = true
					names = append(names, n)
				}
			}
			if got := strings.Join(names, " "); got != want[e.ID][i] {
				t.Errorf("%s on %d cores: designs %q, want %q", e.ID, ctx.Base.Cores, got, want[e.ID][i])
			}
		}
	}
}

// TestVsOverPrefilledMemo pins the one primitive every simulated figure's
// cell comes from, over a memo filled by hand: vs is d over ref (IPC and L1
// miss rate), a reference that never misses gives a miss ratio of 0, and
// gain, gainRows and geomeanRow take the per-app ratios in app order.
func TestVsOverPrefilledMemo(t *testing.T) {
	ctx := QuickContext()
	base, d := ctx.design("Baseline"), ctx.design("Sh40")
	apps := workload.Sensitive()[:3]
	// Per app: Baseline's and d's (IPC, miss rate); the middle reference
	// never misses.
	runs := [][4]float64{{2, 0.5, 4, 0.25}, {1, 0, 8, 0.4}, {4, 0.8, 2, 0.8}}
	wantIPC := []float64{2, 8, 0.5}
	wantMiss := []float64{0.5, 0, 1}
	for i, app := range apps {
		r := runs[i]
		ctx.memo[ctx.Sup.key(gpu.Job{Cfg: ctx.Base, D: base, App: app})] = gpu.Results{IPC: r[0], L1MissRate: r[1]}
		ctx.memo[ctx.Sup.key(gpu.Job{Cfg: ctx.Base, D: d, App: app})] = gpu.Results{IPC: r[2], L1MissRate: r[3]}
	}
	for i, app := range apps {
		ipc, miss := ctx.vs(ctx.Base, base, d, app)
		if ipc != wantIPC[i] || miss != wantMiss[i] {
			t.Errorf("%s: vs = (%v, %v), want (%v, %v)", app.Name, ipc, miss, wantIPC[i], wantMiss[i])
		}
	}
	ipc, miss := ctx.gain(ctx.Base, d, apps)
	if want := stats.Geomean(wantIPC); ipc != want {
		t.Errorf("gain IPC = %v, want the app-order geomean %v", ipc, want)
	}
	if want := stats.Mean(wantMiss); miss != want {
		t.Errorf("gain miss = %v, want the app-order mean %v", miss, want)
	}
	rows := ctx.gainRows(apps, "Sh40")
	for i, r := range rows {
		if r.Label != apps[i].Name || len(r.Cells) != 1 || r.Cells[0] != wantIPC[i] {
			t.Errorf("gainRows[%d] = %+v, want %s [%v]", i, r, apps[i].Name, wantIPC[i])
		}
	}
	if g := geomeanRow("G", rows); g.Label != "G" || len(g.Cells) != 1 || g.Cells[0] != ipc {
		t.Errorf("geomeanRow = %+v, want G [%v]", g, ipc)
	}
	if len(ctx.pending) != 0 {
		t.Errorf("a filled memo recorded %d pending points", len(ctx.pending))
	}

	// On an empty memo, vs meets the reference first.
	ctx = QuickContext()
	ctx.vs(ctx.Base, d, base, apps[0])
	if len(ctx.pending) != 2 || ctx.pending[0].D != d || ctx.pending[1].D != base {
		t.Errorf("vs collected %v, want the reference %s and then %s", ctx.pending, d.Name(), base.Name())
	}
}

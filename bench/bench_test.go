package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func TestP10IsKthSmallest(t *testing.T) {
	// k = ceil(0.1*n): 2 of 20, 3 of 21, 6 of 60.
	for _, c := range []struct{ n, k int }{{20, 2}, {21, 3}, {60, 6}, {1, 1}, {8, 1}, {10, 1}, {11, 2}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // descending: n, n-1, ..., 1
		}
		if got := p10(xs); got != float64(c.k) {
			t.Errorf("p10 of 1..%d = %v, want the %d-th smallest", c.n, got, c.k)
		}
	}
	// Ties: the k-th smallest of a multiset.
	ties := []float64{5, 1, 1, 1, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}
	if got := p10(ties); got != 1 {
		t.Errorf("p10 with ties = %v, want 1", got)
	}
	s := summarize(ties)
	if s.N != 20 || s.P10 != 1 || s.Q50 != 5 || s.Q90 != 5 {
		t.Errorf("summarize(ties) = %+v", s)
	}
	if !math.IsNaN(p10(nil)) {
		t.Error("p10 of nothing should be NaN")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v %v %v", q1, q2, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "root", StartNs: 0, EndNs: 100, Parent: -1},
		{ID: 1, Name: "a", StartNs: 10, EndNs: 40, Parent: 0},   // sibling
		{ID: 2, Name: "b", StartNs: 30, EndNs: 60, Parent: 0},   // overlaps a by 10
		{ID: 3, Name: "a.x", StartNs: 15, EndNs: 25, Parent: 1}, // nested
		{ID: 4, Name: "b", StartNs: 80, EndNs: 90, Parent: 0},   // same name again
	}
	want := map[string]selfStat{
		"root": {Name: "root", Count: 1, TotalNs: 100, SelfNs: 100 - (50 + 10)}, // a∪b covers 10..60
		"a":    {Name: "a", Count: 1, TotalNs: 30, SelfNs: 20},
		"b":    {Name: "b", Count: 2, TotalNs: 40, SelfNs: 40},
		"a.x":  {Name: "a.x", Count: 1, TotalNs: 10, SelfNs: 10},
	}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("selfTimes returned %d names, want %d", len(got), len(want))
	}
	for _, s := range got {
		if s != want[s.Name] {
			t.Errorf("self time of %s = %+v, want %+v", s.Name, s, want[s.Name])
		}
	}
}

func TestTracerFitsChildrenInsideParents(t *testing.T) {
	tr := newTracer()
	root := tr.begin("job", -1, "p", tr.t0)
	tr.add("late", root, "p", tr.t0.Add(5), tr.t0.Add(20)) // overhangs the root's end
	tr.end(root, tr.t0.Add(10))
	spans := tr.finish()
	if spans[1].EndNs != spans[0].EndNs || spans[1].StartNs != 5 {
		t.Errorf("child not clipped to its parent: %+v in %+v", spans[1], spans[0])
	}
	var none *tracer
	if none.begin("x", -1, "", tr.t0) != -1 || none.finish() != nil {
		t.Error("a nil tracer must record nothing")
	}
}

func TestBenchmarkJSONNames(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || len(n) > 64 {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		check(w.Name)
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].Name)
		}
		if _, ok := declaredOverheadSeconds[w.Name]; !ok {
			t.Errorf("no declared overhead for %q", w.Name)
		}
	}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		check(m.Name)
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	// The declared run length fits the contract's total cap; a much longer
	// one is refused rather than shortened.
	if need := contractBudget(float64(spec.RunSeconds)); need > contractTotalSeconds {
		t.Errorf("run_seconds=%d needs %.0f s, over the %d s cap", spec.RunSeconds, need, contractTotalSeconds)
	}
	if contractBudget(60) <= contractTotalSeconds {
		t.Error("a 60 s run length should be over the cap")
	}
}

// TestSmoke drives every workload through the untraced door on both the
// working seed and the held-out one, and the service workload through the
// traced door, at smoke scale (8-core machine, 400+1200 cycles, one iteration)
// with every correctness check on. It also pins that the program emits
// exactly the metrics BENCHMARK.json names, and the exact service counts.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 7} {
		o := options{seed: seed, seconds: 0, smoke: true, sc: smokeScale, root: root, spec: spec,
			runDir: t.TempDir(), out: t.TempDir(), stamp: newHostStamp(root)}
		if o.fix, err = newServiceFixture(o.sc, seed, o.runDir); err != nil {
			t.Fatal(err)
		}
		skipped := 0
		for _, pts := range o.fix.pts {
			for _, p := range pts {
				if p == nil {
					skipped++
				}
			}
		}
		if skipped == 0 || o.fix.valid+skipped != len(serviceApps)*len(serviceDesigns) {
			t.Errorf("seed %d: %d valid + %d skipped points; the 8-core machine should skip some designs, never pass them", seed, o.fix.valid, skipped)
		}
		for _, w := range workloads {
			res, err := runUntraced(w, o)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.Name, seed, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s seed %d: %+v", w.Name, seed, res)
			}
			assertMetrics(t, w.Name, res, spec.EndToEnd)
			if seed != 1 || !w.Service {
				continue
			}
			res, err = runTraced(w, o)
			if err != nil {
				t.Fatalf("%s traced: %v", w.Name, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced: attempted %d failed %d", w.Name, res.Attempted, res.Failed)
			}
			assertMetrics(t, w.Name+" traced", res, spec.PerLayer)
			assertTraceNests(t, filepath.Join(o.out, "trace-"+w.Name+".json"),
				"job", "serve.submit", "serve.first_result", "serve.stream", "farm.acquire", "farm.run", "farm.complete")
			// Exact counts: every point misses the store once when cold and
			// hits it once per re-POST; the farm grants leasePoints at a time.
			n := o.fix.valid
			for name, want := range map[string]int{
				"serve.store_misses": n, "serve.store_hits": n * o.sc.CachedRepeats,
				"farm.leases": (n + leasePoints - 1) / leasePoints, "farm.duplicates": 0, "farm.lost": 0,
			} {
				if got := res.Metrics[name].Value; got != float64(want) {
					t.Errorf("%s = %v, want %d", name, got, want)
				}
			}
		}
	}
}

// TestTracedSimIteration checks the traced form of a sim-* iteration: the
// same Results as the untraced one, a point root with its three children, and
// exact layer counts that repeat.
func TestTracedSimIteration(t *testing.T) {
	w, _ := workloadByName("sim-saturated")
	r, err := newSimRunner(w, smokeScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for _, x := range []*tracer{nil, tr, tr} { // the untraced run is the reference
		if it, err := r.iterate(x); err != nil || it.Failed != 0 {
			t.Fatalf("iterate: %+v %v", it, err)
		}
	}
	c := r.spans.Counts
	if c.Instructions <= 0 || c.L1Accesses <= 0 || c.Series <= 0 || len(r.spans.RunMs) != 2 {
		t.Errorf("counts not collected: %+v", r.spans)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	spans := tr.finish()
	if err := writeTrace(path, traceFile{Workload: w.Name, Seed: 1, Spans: spans, Self: selfTimes(spans)}); err != nil {
		t.Fatal(err)
	}
	assertTraceNests(t, path, "point", "workload.source", "gpu.build", "gpu.run")
}

func assertMetrics(t *testing.T, what string, res result, want []specMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", what, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", what, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: %s has unit %q, want %q", what, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: %s = %v", what, m.Name, got.Value)
		}
	}
}

func assertTraceNests(t *testing.T, path string, wantNames ...string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 || len(tf.Self) == 0 {
		t.Fatalf("%s: empty trace", path)
	}
	names := map[string]bool{}
	for _, s := range tf.Spans {
		names[s.Name] = true
		if s.EndNs < s.StartNs {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			if s.Name != "point" && s.Name != "job" {
				t.Errorf("root span named %q", s.Name)
			}
			continue
		}
		p := tf.Spans[s.Parent]
		if s.Parent >= s.ID || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Errorf("span %d %s [%d,%d] not inside its parent %s [%d,%d]", s.ID, s.Name, s.StartNs, s.EndNs, p.Name, p.StartNs, p.EndNs)
		}
	}
	for _, n := range wantNames {
		if !names[n] {
			t.Errorf("%s: no %s span", path, n)
		}
	}
	for _, s := range tf.Self {
		if s.SelfNs < 0 || s.SelfNs > s.TotalNs {
			t.Errorf("self time of %s = %d of %d", s.Name, s.SelfNs, s.TotalNs)
		}
	}
}

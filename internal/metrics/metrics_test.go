package metrics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dcl1sim/internal/stats"
)

func testRegistry(counter *int64, gauge *float64, hist *stats.Histogram) *Registry {
	r := NewRegistry()
	r.Counter("core-0", "core", "widgets_total", "widgets made", func() int64 { return *counter })
	r.Counter("core-1", "core", "widgets_total", "widgets made", func() int64 { return 2 * *counter })
	r.Gauge("core-0", "core", "pressure", "instantaneous pressure", func() float64 { return *gauge })
	r.Histogram("core-0", "core", "latency_cycles", "request latency", hist)
	return r
}

func TestRegistryAccessors(t *testing.T) {
	counter, gauge := int64(10), 2.5
	var h stats.Histogram
	h.Add(3)
	h.Add(5)
	r := testRegistry(&counter, &gauge, &h)

	if got := r.Total("widgets_total"); got != 30 {
		t.Errorf("Total = %d, want 30", got)
	}
	if got := r.Ints("widgets_total"); len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Errorf("Ints = %v, want [10 20]", got)
	}
	if got := r.GaugeMax("pressure"); got != 2.5 {
		t.Errorf("GaugeMax = %g, want 2.5", got)
	}
	if got := r.GaugeMax("no_such_family"); got != 0 {
		t.Errorf("GaugeMax of empty family = %g, want 0", got)
	}
	m := r.MergedHistogram("latency_cycles")
	if m.Count() != 2 || m.Sum() != 8 {
		t.Errorf("MergedHistogram count=%d sum=%d, want 2/8", m.Count(), m.Sum())
	}
}

func TestRegistryDuplicateIDPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "core", "x_total", "", func() int64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("registering a duplicate series ID did not panic")
		}
	}()
	r.Counter("c", "core", "x_total", "", func() int64 { return 0 })
}

func TestSampleReusesBatch(t *testing.T) {
	counter, gauge := int64(1), 1.0
	var h stats.Histogram
	r := testRegistry(&counter, &gauge, &h)

	var b Batch
	r.Sample(&b)
	if len(b.Samples) != r.Len() {
		t.Fatalf("sampled %d series, registry has %d", len(b.Samples), r.Len())
	}
	first := &b.Samples[0]
	counter = 7
	r.Sample(&b)
	if &b.Samples[0] != first {
		t.Error("Sample reallocated the samples slice on resample")
	}
	if got := b.Samples[0].Value; got != 7 {
		t.Errorf("resampled counter value = %g, want 7", got)
	}
}

// TestCollectorGrid pins the sample grid contract: samples land exactly on
// multiples of Every regardless of which cycles Tick observes, Fold emits at
// most one pending sample, and Flush stamps the final batch.
func TestCollectorGrid(t *testing.T) {
	counter, gauge := int64(0), 0.0
	var h stats.Histogram
	r := testRegistry(&counter, &gauge, &h)

	var cycles []int64
	var finals []bool
	sink := SinkFunc(func(b *Batch) {
		cycles = append(cycles, b.Cycle)
		finals = append(finals, b.Final)
	})
	c := NewCollector(r, "D", "A", 100, sink)
	c.SetTimeFunc(func(cyc int64) int64 { return cyc * 2 })

	// Simulate a sleeping collector: ticks only on a sparse set of cycles,
	// but never past NextWorkCycle — exactly the engine's contract.
	now := int64(0)
	for now < 450 {
		step := int64(7)
		if next := c.NextWorkCycle(now); now+step > next {
			step = next - now
		}
		now += step
		c.Tick(now)
		c.Fold()
	}
	c.Flush(450)

	want := []int64{100, 200, 300, 400, 450}
	if len(cycles) != len(want) {
		t.Fatalf("got batches at %v, want %v", cycles, want)
	}
	for i := range want {
		if cycles[i] != want[i] {
			t.Fatalf("got batches at %v, want %v", cycles, want)
		}
		if isFinal := i == len(want)-1; finals[i] != isFinal {
			t.Errorf("batch %d final=%v", i, finals[i])
		}
	}
}

// TestCollectorFoldWithoutPending pins that barrier folds between sample
// points emit nothing, and that hooks run even with a nil sink (the power
// governor must step without an observer).
func TestCollectorHooksWithNilSink(t *testing.T) {
	counter, gauge := int64(0), 0.0
	var h stats.Histogram
	r := testRegistry(&counter, &gauge, &h)

	c := NewCollector(r, "D", "A", 10, nil)
	var hookCycles []int64
	c.OnSample(func(cycle int64) { hookCycles = append(hookCycles, cycle) })
	for now := int64(1); now <= 25; now++ {
		c.Tick(now)
		c.Fold()
	}
	if len(hookCycles) != 2 || hookCycles[0] != 10 || hookCycles[1] != 20 {
		t.Errorf("hook cycles = %v, want [10 20]", hookCycles)
	}
}

// TestCollectorSteadyStateAllocs pins the near-zero-cost claim: after the
// first emission sized the batch, the tick→fold→emit cycle must not allocate.
func TestCollectorSteadyStateAllocs(t *testing.T) {
	counter, gauge := int64(0), 0.0
	var h stats.Histogram
	r := testRegistry(&counter, &gauge, &h)
	c := NewCollector(r, "D", "A", 1, SinkFunc(func(*Batch) {}))

	now := int64(0)
	step := func() {
		now++
		c.Tick(now)
		c.Fold()
	}
	step() // first emit allocates the sample slice
	if avg := testing.AllocsPerRun(1000, step); avg > 0.01 {
		t.Errorf("steady-state sampling allocates %.2f allocs/sample, want ~0", avg)
	}
}

func TestNDJSONSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewNDJSONSink(&buf)
	b := &Batch{Design: "D", App: "A", Cycle: 5, Samples: []Sample{{ID: "c/core/x_total", Value: 3}}}
	s.Emit(b)
	b.Cycle = 10
	s.Emit(b)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	var got []Batch
	for sc.Scan() {
		var d Batch
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		got = append(got, d)
	}
	if len(got) != 2 || got[0].Cycle != 5 || got[1].Cycle != 10 {
		t.Fatalf("round-tripped batches: %+v", got)
	}
	if got[0].Samples[0].ID != "c/core/x_total" {
		t.Fatalf("round-tripped sample: %+v", got[0].Samples)
	}
}

// TestWritePromLints renders a mixed-kind batch pair and runs the exposition
// through the CI linter.
func TestWritePromLints(t *testing.T) {
	counter, gauge := int64(42), 1.25
	var h stats.Histogram
	h.Add(4)
	h.Add(9)
	r := testRegistry(&counter, &gauge, &h)

	var b1, b2 Batch
	b1.Design, b1.App = "Baseline", "C-BFS"
	r.Sample(&b1)
	b2.Design, b2.App = "Sh40+C10+Boost", "C-BFS"
	r.Sample(&b2)

	var page bytes.Buffer
	if err := WriteProm(&page, &b1, &b2); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	text := page.String()
	for _, want := range []string{
		"# TYPE dcl1_widgets_total counter",
		"# TYPE dcl1_pressure gauge",
		"# TYPE dcl1_latency_cycles summary",
		`design="Baseline"`,
		`design="Sh40+C10+Boost"`,
		"dcl1_latency_cycles_count{",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if err := LintProm(strings.NewReader(text)); err != nil {
		t.Errorf("LintProm rejected our own exposition: %v\n%s", err, text)
	}
}

// TestLintPromRejects spot-checks that the linter actually catches the
// regressions CI relies on it for.
func TestLintPromRejects(t *testing.T) {
	cases := map[string]string{
		"untyped sample":   "dcl1_x_total 1\n",
		"bad value":        "# TYPE dcl1_x counter\ndcl1_x notanumber\n",
		"duplicate series": "# TYPE dcl1_x counter\ndcl1_x{a=\"b\"} 1\ndcl1_x{a=\"b\"} 2\n",
		"double type":      "# TYPE dcl1_x counter\n# TYPE dcl1_x gauge\n",
		"unquoted label":   "# TYPE dcl1_x counter\ndcl1_x{a=b} 1\n",
		"empty page":       "\n",
	}
	for name, page := range cases {
		if err := LintProm(strings.NewReader(page)); err == nil {
			t.Errorf("%s: lint accepted %q", name, page)
		}
	}
}

// TestPromModuleLabel checks the exposition derives a module label from the
// "m<N>." component prefix multi-GPU machines stamp on per-module series,
// and leaves unprefixed (single-module and machine-level) components alone.
func TestPromModuleLabel(t *testing.T) {
	b := Batch{Design: "Sh4+M2", App: "A", Samples: []Sample{
		{ID: "m0.core-0/core/x_total", Kind: KindCounter, Value: 1},
		{ID: "m12.l2-3/cache/x_total", Kind: KindCounter, Value: 2},
		{ID: "link-req/link/x_total", Kind: KindCounter, Value: 3},
		{ID: "mesh-req/noc/x_total", Kind: KindCounter, Value: 4},
	}}
	var page bytes.Buffer
	if err := WriteProm(&page, &b); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	text := page.String()
	for _, want := range []string{
		`component="core-0",domain="core",module="m0"`,
		`component="l2-3",domain="cache",module="m12"`,
		`component="link-req",domain="link"} `,
		`component="mesh-req",domain="noc"} `,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, `component="mesh-req",domain="noc",module=`) {
		t.Errorf("mesh-req wrongly gained a module label:\n%s", text)
	}
	if err := LintProm(strings.NewReader(text)); err != nil {
		t.Errorf("LintProm rejected module-labelled exposition: %v\n%s", err, text)
	}
}

// TestSplitModuleComp pins the prefix grammar: "m" + digits + "." + rest.
func TestSplitModuleComp(t *testing.T) {
	cases := []struct {
		comp, module, rest string
		ok                 bool
	}{
		{"m0.core-0", "m0", "core-0", true},
		{"m7.l1-12", "m7", "l1-12", true},
		{"m10.tracker", "m10", "tracker", true},
		{"core-0", "", "", false},
		{"mesh-req", "", "", false},
		{"m.x", "", "", false},
		{"m0.", "", "", false},
		{"m0", "", "", false},
		{"x0.y", "", "", false},
	}
	for _, c := range cases {
		mod, rest, ok := splitModuleComp(c.comp)
		if mod != c.module || rest != c.rest || ok != c.ok {
			t.Errorf("splitModuleComp(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.comp, mod, rest, ok, c.module, c.rest, c.ok)
		}
	}
}

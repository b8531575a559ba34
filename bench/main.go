// Command bench is the repository's one benchmark door: it measures the HOST
// speed of the simulator end to end through the public doors (dcl1.Run and
// serve.Server.Handler) and, in a traced run, layer by layer from outside by
// timing calls into each package's public functions. Simulated results are
// checked for identity, never reported as a speed. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"dcl1sim/internal/gpu"
)

// setupSamples is how many fresh processes (this one plus probes) measure
// set-up; setup_s is their median.
const setupSamples = 3

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, the contract's one JSON object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchSpec is BENCHMARK.json, the benchmark's own declaration of what it
// reports; the program reads names, units and bounds from it so the two
// cannot drift apart.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// options are the parsed flags of one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	smoke    bool
	probe    bool
	all      bool
	selftest bool
	runs     int
	varySeed bool
	root     string
	spec     benchSpec
	sc       scale
	runDir   string
	stamp    hostStamp
	// probes is how many extra fresh processes sample set-up, and fix a
	// service fixture to reuse; the tests set both to stay in one process
	// and build the 48 reference results once per seed.
	probes int
	fix    *serviceFixture
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	var o options
	var trace string
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed (Config.Seed / SweepSpec.Seed); claims are re-checked on the held-out seed 7")
	fs.Float64Var(&o.seconds, "seconds", 0, "seconds one run measures (default: run_seconds of BENCHMARK.json)")
	fs.StringVar(&trace, "trace", "0", "1 = traced per-layer run, 0 = untraced end-to-end run")
	fs.StringVar(&o.out, "out", "", "directory for trace-<workload>.json (default: .bench_build/traces)")
	fs.BoolVar(&o.smoke, "smoke", false, "run at smoke scale (8-core machine, 400+1200 cycles, one iteration)")
	fs.BoolVar(&o.all, "all", false, "run every workload once, each in a fresh process")
	fs.BoolVar(&o.selftest, "selftest", false, "run two interleaved sets of untraced runs per workload and compare their medians against the bounds")
	fs.IntVar(&o.runs, "runs", 5, "runs per set in -selftest")
	fs.BoolVar(&o.varySeed, "vary-seed", false, "-selftest: give the i-th run of each set seed i (the acceptance procedure) instead of seed 1 throughout")
	fs.BoolVar(&o.probe, "setup-probe", false, "internal: set up, print the set-up time, exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	switch trace {
	case "0", "false":
	case "1", "true":
		o.trace = true
	default:
		return fmt.Errorf("-trace must be 0 or 1, got %q", trace)
	}
	var err error
	if o.root, err = findRoot(); err != nil {
		return err
	}
	if o.spec, err = loadSpec(o.root); err != nil {
		return err
	}
	if o.seconds == 0 {
		o.seconds = float64(o.spec.RunSeconds)
	}
	o.sc = fullScale
	if o.smoke {
		o.sc = smokeScale
	}
	o.probes = setupSamples - 1

	if o.all || o.selftest {
		return runMany(o)
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown -workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	// Everything the run writes lives under .bench_build/ in the checkout.
	if err := os.MkdirAll(filepath.Join(o.root, ".bench_build"), 0o755); err != nil {
		return err
	}
	if o.runDir, err = os.MkdirTemp(filepath.Join(o.root, ".bench_build"), "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(o.runDir)

	if o.probe {
		_, setup, err := setUp(w, o)
		if err != nil {
			return err
		}
		fmt.Println(strconv.FormatFloat(setup.Seconds(), 'f', -1, 64))
		return nil
	}
	o.stamp = newHostStamp(o.root)
	var res result
	if o.trace {
		res, err = runTraced(w, o)
	} else {
		res, err = runUntraced(w, o)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// layerView is what a traced run reads off the workload itself.
type layerView struct {
	BuildMs, RunMs float64     // the gpu.NewSystemChecked / RunChecked boundary
	Counts         layerCounts // exact work counts of the measurement window(s)
	PointNs        float64     // host time of the work the counts describe
	Job            gpu.Job     // the point the rigs and A/B ratios use
}

// setUp builds the workload's fixtures and runs the untimed warm-up
// iteration (which fills lazily built state and becomes the reference every
// later iteration is compared with). It returns the time from the kernel's
// creation of this process to the moment the first timed iteration could
// start: the run's set-up cost.
func setUp(w workload, o options) (runner, time.Duration, error) {
	var r runner
	if w.Service {
		f := o.fix // supplied by a traced run or a test; otherwise built here
		if f == nil {
			var err error
			if f, err = newServiceFixture(o.sc, o.seed, o.runDir); err != nil {
				return nil, 0, err
			}
		}
		r = &serviceRunner{f: f}
	} else {
		sr, err := newSimRunner(w, o.sc, o.seed)
		if err != nil {
			return nil, 0, err
		}
		r = sr
	}
	if _, err := r.iterate(nil); err != nil {
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	setup, err := sinceProcessStart()
	return r, setup, err
}

// probeSetup measures set-up in a fresh process of this same binary.
func probeSetup(w workload, o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	args := []string{"-setup-probe", "-workload", w.Name, "-seed", strconv.FormatUint(o.seed, 10)}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = o.root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to exit
	if err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// isolate collects the previous iteration's garbage outside the timed region.
// Iterations stand for independent runs (a CLI run is one point per process),
// so one must neither pay for collecting its predecessor's machine nor have
// its heap target — and with it the process's peak RSS — depend on when that
// collection happened to land.
func isolate() { runtime.GC() }

// measure runs timed iterations until seconds have elapsed (at least
// minIters), returning each iteration's seconds and the op counts. A failed
// point is counted and the run goes on; any other error ends it.
func measure(r runner, cal *calibrator, seconds float64, minIters int) (times []float64, attempted, failed int, err error) {
	start := time.Now()
	for len(times) < minIters || time.Since(start).Seconds() < seconds {
		isolate()
		cal.sample()
		it, err := r.iterate(nil)
		times = append(times, it.Elapsed.Seconds())
		attempted += it.Attempted
		failed += it.Failed
		if err != nil {
			if it.Failed == 0 {
				return times, attempted, failed, err // not a failed point: the harness itself broke
			}
			fmt.Fprintln(os.Stderr, "bench: failed point:", err)
		}
	}
	return times, attempted, failed, nil
}

// runUntraced is the end-to-end run: set-up (sampled in 1 + o.probes fresh
// processes), then timed iterations for o.seconds, then the four gated
// metrics, each host-time one computed from the p10 iteration.
func runUntraced(w workload, o options) (result, error) {
	r, own, err := setUp(w, o)
	if err != nil {
		return result{}, err
	}
	setups := []float64{own.Seconds()}
	for i := 0; i < o.probes; i++ {
		s, err := probeSetup(w, o)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, s)
	}
	cal := newCalibrator(o.sc.CalibScale)
	times, attempted, failed, err := measure(r, cal, o.seconds, o.sc.MinIters)
	if err != nil {
		return result{}, err
	}
	cal.sample()
	rss, err := procStatusMB("VmHWM")
	if err != nil {
		return result{}, err
	}
	// Host times are reported in reference seconds (see calib.go): wall
	// seconds over the host factor the run measured alongside.
	sum, host := summarize(times), cal.hostFactor()
	refIteration := sum.P10 / host
	values := map[string]float64{
		"sim_kcycles_per_s": r.kcycles() / refIteration,
		"points_per_s":      float64(r.points()) / refIteration,
		"rss_mb_peak":       rss,
		"setup_s":           median(setups) / host,
	}
	o.stamp.LoadavgEnd = loadavg()

	fmt.Printf("workload: %s seed=%d seconds=%g timed_iterations=%d warmup_iterations=1 setup_samples=%d\n",
		w.Name, o.seed, o.seconds, sum.N, len(setups))
	fmt.Println(o.stamp)
	fmt.Printf("iteration_s: p10=%.6f q50=%.6f q90=%.6f n=%d (%g simulated kcycles, %d point(s) per iteration)\n",
		sum.P10, sum.Q50, sum.Q90, sum.N, r.kcycles(), r.points())
	cs := summarize(cal.samples)
	fmt.Printf("calibration_s: p10=%.6f q50=%.6f q90=%.6f n=%d host_factor=%.4f (wall seconds per reference second)\n",
		cs.P10, cs.Q50, cs.Q90, cs.N, host)
	fmt.Printf("wall-clock, not normalised: sim_kcycles_per_s=%.4f points_per_s=%.4f setup_s=%.4f\n",
		r.kcycles()/sum.P10, float64(r.points())/sum.P10, median(setups))
	fmt.Printf("setup_samples_s: %v\n", setups)
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, sm := range o.spec.EndToEnd {
		v, ok := values[sm.Name]
		if !ok {
			return result{}, fmt.Errorf("BENCHMARK.json names end-to-end metric %q, which this program does not measure", sm.Name)
		}
		res.Metrics[sm.Name] = metric{Value: v, Unit: sm.Unit}
		fmt.Printf("%-18s %14.6f %s\n", sm.Name, v, sm.Unit)
	}
	fmt.Printf("ops_attempted=%d ops_failed=%d\n", attempted, failed)
	fmt.Printf("results_digest=%s\n", r.digest())
	return res, nil
}

// runTraced is the per-layer run: traced and untraced iterations of the
// workload interleaved (their p10 difference is the tracing overhead), then
// the A/B ratios on the workload's point, the standalone component rigs and
// the service/farm layer, with every span kept in memory and written out at
// the end.
func runTraced(w workload, o options) (result, error) {
	// Every traced run measures the service layers too, on the 48 small
	// points, so every traced run reports every layer; the service workload
	// iterates over the same fixture.
	var err error
	if o.fix == nil {
		if o.fix, err = newServiceFixture(o.sc, o.seed, o.runDir); err != nil {
			return result{}, err
		}
	}
	r, _, err := setUp(w, o)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	m := map[string]float64{}

	// Interleave U T U T ... for a third of the run's seconds.
	meter := startAllocMeter()
	cal := newCalibrator(o.sc.CalibScale)
	var untraced, traced []float64
	attempted, failed := 0, 0
	start := time.Now()
	for len(traced) < max(o.sc.MinIters-1, 1) || time.Since(start).Seconds() < o.seconds/3 {
		for _, t := range []*tracer{nil, tr} {
			isolate()
			cal.sample()
			it, err := r.iterate(t)
			if err != nil && it.Failed == 0 {
				return result{}, err
			}
			attempted, failed = attempted+it.Attempted, failed+it.Failed
			if t == nil {
				untraced = append(untraced, it.Elapsed.Seconds())
			} else {
				traced = append(traced, it.Elapsed.Seconds())
			}
		}
	}
	meter.metrics(m, float64(len(untraced)+len(traced))*r.kcycles())
	m["trace_overhead_pct"] = 100 * (p10(traced) - p10(untraced)) / p10(untraced)
	// Per-layer times are wall-clock; the host factor beside them says how
	// fast the host was while they were taken.
	m["host.speed_factor"] = cal.hostFactor()

	// The workload's own layer figures: the gpu boundary and the exact counts.
	v := r.view(p10(untraced))
	m["gpu.build_ms"], m["gpu.run_ms"] = v.BuildMs, v.RunMs
	m["gpu.build_share_pct"] = 100 * v.BuildMs / (v.BuildMs + v.RunMs)
	m["core.host_ns_per_instr"] = v.PointNs / float64(v.Counts.Instructions)
	v.Counts.metrics(m)

	// The A/B ratios run the workload's point; a Table II point gets a short
	// window, since a ratio needs many runs and the knobs it compares cost
	// the same per cycle at any window length.
	ratioJob := v.Job
	if !w.Service {
		ratioJob.Cfg.WarmupCycles, ratioJob.Cfg.MeasureCycles = o.sc.RatioWarmup, o.sc.RatioCycles
	}
	a, f := pointRatios(o.sc, ratioJob, m)
	attempted, failed = attempted+a, failed+f

	for k, val := range componentRigs(o.sc, v.Job.App, v.Job.Cfg) {
		m[k] = val
	}
	if err := experimentsRigs(o.sc, o.fix, m); err != nil {
		return result{}, err
	}
	a, f, err = serviceLayer(o.sc, o.fix, tr, m)
	if err != nil {
		return result{}, err
	}
	attempted, failed = attempted+a, failed+f
	o.stamp.LoadavgEnd = loadavg()

	// Write the spans out, now that the run is over.
	spans := tr.finish()
	self := selfTimes(spans)
	outDir := o.out
	if outDir == "" {
		outDir = filepath.Join(o.root, ".bench_build", "traces")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	tracePath := filepath.Join(outDir, "trace-"+w.Name+".json")
	if err := writeTrace(tracePath, traceFile{Workload: w.Name, Seed: o.seed, Host: o.stamp, Spans: spans, Self: self}); err != nil {
		return result{}, err
	}

	fmt.Printf("workload: %s seed=%d seconds=%g traced_iterations=%d untraced_iterations=%d ratio_rounds=%d rig_batches=%d\n",
		w.Name, o.seed, o.seconds, len(traced), len(untraced), o.sc.RatioRounds, o.sc.RigBatches)
	fmt.Println(o.stamp)
	fmt.Printf("trace: %s (%d spans)\n", tracePath, len(spans))
	fmt.Printf("%-22s %6s %14s %14s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range self {
		fmt.Printf("%-22s %6d %14.3f %14.3f\n", s.Name, s.Count, float64(s.TotalNs)/1e6, float64(s.SelfNs)/1e6)
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, sm := range o.spec.PerLayer {
		v, ok := m[sm.Name]
		if !ok {
			return result{}, fmt.Errorf("BENCHMARK.json names per-layer metric %q, which this program does not measure", sm.Name)
		}
		delete(m, sm.Name)
		res.Metrics[sm.Name] = metric{Value: v, Unit: sm.Unit}
		fmt.Printf("%-36s %16.6f %s\n", sm.Name, v, sm.Unit)
	}
	if len(m) > 0 {
		var extra []string
		for k := range m {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		return result{}, fmt.Errorf("measured but not declared in BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
	fmt.Printf("ops_attempted=%d ops_failed=%d\n", attempted, failed)
	fmt.Printf("results_digest=%s\n", r.digest())
	return res, nil
}

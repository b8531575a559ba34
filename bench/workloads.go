package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"dcl1sim"
	"dcl1sim/internal/gpu"
	"dcl1sim/internal/serve"
)

// workload is one of the benchmark's four input sets. Each isolates a
// different set of layers (pprof package shares at the defining commit are in
// README.md), so an optimisation has one workload that exercises it and one
// that bypasses it.
type workload struct {
	Name string
	// App and Design name the single sweep point of a sim-* workload on the
	// paper's Table II machine; SmokeDesign is the same organisation scaled
	// to the 8-core smoke machine.
	App, Design, SmokeDesign string
	// Service marks the HTTP workload (many small points through dcl1serve).
	Service bool
}

var workloads = []workload{
	// The paper's headline design with every layer busy every cycle: core
	// issue, DC-L1 nodes and the forty 2x-clock NoC#1 crossbars do most of
	// the work, DRAM almost none.
	{Name: "sim-saturated", App: "T-AlexNet", Design: "Sh40+C10+Boost", SmokeDesign: "Sh4+C2+Boost"},
	// L1 miss rate 1.0 on the private-L1 baseline: no DC-L1 layer, one wide
	// crossbar nearly idle; the stress for DRAM, L2 and the miss path and the
	// bypass for any NoC#1/DC-L1 optimisation.
	{Name: "sim-membound", App: "C-BLK", Design: "Baseline", SmokeDesign: "Baseline"},
	// Four wavefronts per core, latency-bound, components mostly asleep: the
	// engine's quiescence/skip and two-phase port machinery do most of the
	// work, component logic little.
	{Name: "sim-idle", App: "C-NN", Design: "Sh40", SmokeDesign: "Sh4"},
	// 48 deliberately small points through the HTTP service, so per-point
	// fixed cost (machine build, supervisor, fsync, queueing, JSON) is a
	// large share and the tick loop a small one.
	{Name: "service-smallpoints", Service: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// The service workload: 4 jobs x 12 designs on the 16-core quick machine.
var (
	serviceApps    = []string{"T-AlexNet", "C-NN", "P-2DCONV", "C-BLK"}
	serviceDesigns = []string{
		"Baseline", "Pr16", "Pr8", "Pr4", "Sh16", "Sh8", "Sh8+C2", "Sh8+C4",
		"Sh8+C2+Boost", "Sh8+C4+Boost", "Sh4", "Sh16+C4",
	}
)

// scale sizes a run: the real benchmark, or the smoke path the tests use to
// drive every code path (all correctness checks on) in well under a second.
type scale struct {
	Smoke bool
	// Sim is the sim-* machine (zero value = the paper's Table II machine
	// with the default 10k+40k-cycle windows).
	Sim gpu.Config
	// Quick is the service workload's machine and windows.
	Quick serve.SweepSpec
	// RatioWarmup/RatioCycles shorten the windows of the A/B ratio runs on
	// the sim-* machine: a ratio needs many interleaved runs, and the knobs
	// it compares cost the same per cycle at any window length.
	RatioWarmup, RatioCycles int64
	RigBatches               int     // batches per standalone component rig
	RigCycles                int     // cycles (or operations) per rig batch
	RatioRounds              int     // interleaved rounds per A/B ratio
	CachedRepeats            int     // re-POSTs of each spec to the warm server
	MinIters                 int     // timed iterations, however short the run
	CalibScale               float64 // size of one calibration-kernel sample (1 = full)
}

var fullScale = scale{
	Quick:       serve.SweepSpec{Cores: 16, L2Slices: 8, Channels: 4, Warmup: 1500, Cycles: 4000},
	RatioWarmup: 1000, RatioCycles: 3000,
	RigBatches: 20, RigCycles: 20000, RatioRounds: 6, CachedRepeats: 50, MinIters: 3,
	CalibScale: 1,
}

var smokeScale = scale{
	Smoke:       true,
	Sim:         gpu.Config{Cores: 8, L2Slices: 4, Channels: 2, WarmupCycles: 400, MeasureCycles: 1200},
	Quick:       serve.SweepSpec{Cores: 8, L2Slices: 4, Channels: 2, Warmup: 400, Cycles: 1200},
	RatioWarmup: 100, RatioCycles: 300,
	RigBatches: 2, RigCycles: 500, RatioRounds: 1, CachedRepeats: 2, MinIters: 1,
	CalibScale: 0.01,
}

// point is one sweep point with the reference answer every later result of
// the same point must match byte for byte.
type point struct {
	ID  string
	Job gpu.Job
	Ref []byte      // canonical JSON of the reference gpu.Results
	Res gpu.Results // the reference itself (service points: the lease rig uploads it)
}

// checkResults applies the per-point correctness rules: no typed error, the
// configured measurement window was simulated in full, and work was done.
func checkResults(job gpu.Job, r gpu.Results, err error) error {
	if err != nil {
		return err
	}
	if want := job.Cfg.WithDefaults().MeasureCycles; r.MeasuredCycles != want {
		return fmt.Errorf("measured %d cycles, configured %d", r.MeasuredCycles, want)
	}
	if !(r.IPC > 0) {
		return fmt.Errorf("IPC = %v, want > 0", r.IPC)
	}
	return nil
}

func resultsJSON(r gpu.Results) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain value type: cannot happen
	}
	return b
}

// simPoint builds the one sweep point of a sim-* workload.
func simPoint(w workload, sc scale, seed uint64) (gpu.Job, error) {
	app, ok := dcl1.AppByName(w.App)
	if !ok {
		return gpu.Job{}, fmt.Errorf("unknown app %q", w.App)
	}
	name := w.Design
	if sc.Smoke {
		name = w.SmokeDesign
	}
	d, err := dcl1.ParseDesign(name)
	if err != nil {
		return gpu.Job{}, err
	}
	cfg := sc.Sim
	cfg.Seed = seed
	if err := d.Validate(cfg); err != nil {
		return gpu.Job{}, err
	}
	return gpu.Job{Cfg: cfg, D: d, App: app}, nil
}

// iterResult is what one timed iteration reports: how long it took and how
// many points it attempted and failed (an op is one point).
type iterResult struct {
	Elapsed           time.Duration
	Attempted, Failed int
}

// runner is a workload ready to iterate. Every iteration does byte-identical
// work; with a non-nil tracer the same work is done through the split calls
// so spans can be recorded at the layer boundaries.
type runner interface {
	iterate(tr *tracer) (iterResult, error)
	// kcycles and points are the simulated work of one iteration.
	kcycles() float64
	points() int
	// digest is the SHA-256 of the workload's reference Results.
	digest() string
	// view reports what traced iterations saw at the gpu boundary;
	// p10Iteration is the p10 untraced iteration in seconds.
	view(p10Iteration float64) layerView
}

// simRunner runs one point through the public door, dcl1.Run.
type simRunner struct {
	pt    point
	spans simSpans // filled by traced iterations
}

// simSpans collects what traced sim iterations observe at the gpu boundary.
type simSpans struct {
	BuildMs, RunMs []float64
	Counts         layerCounts
}

func newSimRunner(w workload, sc scale, seed uint64) (*simRunner, error) {
	job, err := simPoint(w, sc, seed)
	if err != nil {
		return nil, err
	}
	return &simRunner{pt: point{ID: w.App + "/" + job.D.Name(), Job: job}}, nil
}

func (s *simRunner) iterate(tr *tracer) (iterResult, error) {
	job := s.pt.Job
	var (
		r   gpu.Results
		err error
	)
	t0 := time.Now()
	if tr == nil {
		r, err = dcl1.Run(job.Cfg, job.D, job.App)
	} else {
		r, err = s.tracedRun(tr, t0)
	}
	res := iterResult{Elapsed: time.Since(t0), Attempted: 1}
	if err = checkResults(job, r, err); err == nil {
		got := resultsJSON(r)
		if s.pt.Ref == nil {
			s.pt.Ref = got // the first (warm-up) iteration is the reference
		} else if !bytes.Equal(got, s.pt.Ref) {
			err = fmt.Errorf("results differ from the first iteration of the same point")
		}
	}
	if err != nil {
		res.Failed = 1
		return res, fmt.Errorf("%s: %w", s.pt.ID, err)
	}
	return res, nil
}

// tracedRun is dcl1.Run taken apart at the gpu package boundary: the same
// NewSystemChecked + RunChecked pair, with a span around each.
func (s *simRunner) tracedRun(tr *tracer, t0 time.Time) (gpu.Results, error) {
	job := s.pt.Job
	root := tr.begin("point", -1, s.pt.ID, t0)
	// The wavefront programs themselves are created inside the machine
	// build; all that is visible from outside is resolving the source.
	src, _ := dcl1.AppByName(job.App.Label())
	t1 := time.Now()
	tr.add("workload.source", root, s.pt.ID, t0, t1)
	sys, err := gpu.NewSystemChecked(job.Cfg, job.D, src)
	t2 := time.Now()
	tr.add("gpu.build", root, s.pt.ID, t1, t2)
	if err != nil {
		tr.end(root, t2)
		return gpu.Results{}, err
	}
	r, err := sys.RunChecked(gpu.HealthOptions{})
	t3 := time.Now()
	tr.add("gpu.run", root, s.pt.ID, t2, t3)
	tr.end(root, t3)
	s.spans.BuildMs = append(s.spans.BuildMs, ms(t2.Sub(t1)))
	s.spans.RunMs = append(s.spans.RunMs, ms(t3.Sub(t2)))
	counts := countsOf(sys, r)
	if len(s.spans.RunMs) > 1 && err == nil && counts != s.spans.Counts {
		err = fmt.Errorf("exact layer counts differ from the previous iteration: %+v vs %+v", counts, s.spans.Counts)
	}
	s.spans.Counts = counts
	return r, err
}

func (s *simRunner) kcycles() float64 {
	c := s.pt.Job.Cfg.WithDefaults()
	return float64(c.WarmupCycles+c.MeasureCycles) / 1000
}
func (s *simRunner) points() int    { return 1 }
func (s *simRunner) digest() string { return digestOf(s.pt.Ref) }
func (s *simRunner) view(p10Iteration float64) layerView {
	counts := s.spans.Counts
	counts.ResultsJSONBytes = len(s.pt.Ref)
	return layerView{BuildMs: p10(s.spans.BuildMs), RunMs: p10(s.spans.RunMs), Counts: counts,
		PointNs: p10Iteration * 1e9, Job: s.pt.Job}
}

func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"dcl1sim/internal/experiments"
	"dcl1sim/internal/farm"
	"dcl1sim/internal/gpu"
	simmetrics "dcl1sim/internal/metrics"
	"dcl1sim/internal/serve"
)

// layerCounts are the exact per-layer work counts of a measurement window,
// read from the machine's metric registry after the run. They repeat bit for
// bit, so two versions of the program can be compared on them directly.
type layerCounts struct {
	Instructions, L1Accesses, L1Loads, L1Misses, L2Loads, L2Misses int64
	Noc1Flits, Noc2Flits, DramReads, DramWrites                    int64
	MaxPortUtil                                                    float64
	Series                                                         int
	ResultsJSONBytes                                               int // set by the owner, who already holds the JSON
}

func countsOf(sys *gpu.System, r gpu.Results) layerCounts {
	reg := sys.Reg
	return layerCounts{
		Instructions: reg.Total("core_instructions_total"),
		L1Accesses:   reg.Total("l1_accesses_total"),
		L1Loads:      reg.Total("l1_loads_total"),
		L1Misses:     reg.Total("l1_load_misses_total"),
		L2Loads:      reg.Total("l2_loads_total"),
		L2Misses:     reg.Total("l2_load_misses_total"),
		Noc1Flits:    r.Noc1Flits,
		Noc2Flits:    r.Noc2Flits,
		DramReads:    r.DramReads,
		DramWrites:   r.DramWrites,
		MaxPortUtil:  r.MaxL1PortUtil,
		Series:       reg.Len(),
	}
}

// add folds another point's counts in (the service workload sums its 48).
func (c *layerCounts) add(o layerCounts) {
	c.Instructions += o.Instructions
	c.L1Accesses += o.L1Accesses
	c.L1Loads += o.L1Loads
	c.L1Misses += o.L1Misses
	c.L2Loads += o.L2Loads
	c.L2Misses += o.L2Misses
	c.Noc1Flits += o.Noc1Flits
	c.Noc2Flits += o.Noc2Flits
	c.DramReads += o.DramReads
	c.DramWrites += o.DramWrites
	c.MaxPortUtil = max(c.MaxPortUtil, o.MaxPortUtil)
	c.Series = max(c.Series, o.Series)
	c.ResultsJSONBytes += o.ResultsJSONBytes
}

func pct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

func (c layerCounts) metrics(m map[string]float64) {
	m["core.instructions"] = float64(c.Instructions)
	m["cache.l1_accesses"] = float64(c.L1Accesses)
	m["cache.l1_miss_pct"] = pct(c.L1Misses, c.L1Loads)
	m["cache.l2_loads"] = float64(c.L2Loads)
	m["cache.l2_miss_pct"] = pct(c.L2Misses, c.L2Loads)
	m["dcl1.max_port_util_pct"] = 100 * c.MaxPortUtil
	m["noc.noc1_flits"] = float64(c.Noc1Flits)
	m["noc.noc2_flits"] = float64(c.Noc2Flits)
	m["dram.reads"] = float64(c.DramReads)
	m["dram.writes"] = float64(c.DramWrites)
	m["metrics.series"] = float64(c.Series)
	m["gpu.results_json_bytes"] = float64(c.ResultsJSONBytes)
}

// gcCPUSeconds reads the runtime's cumulative GC CPU time.
func gcCPUSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		return s[0].Value.Float64(), s[1].Value.Float64()
	}
	return 0, 0
}

// allocMeter brackets the timed iterations with runtime.MemStats reads.
type allocMeter struct {
	ms          runtime.MemStats
	gc, cpuBase float64
}

func startAllocMeter() *allocMeter {
	a := &allocMeter{}
	runtime.ReadMemStats(&a.ms)
	a.gc, a.cpuBase = gcCPUSeconds()
	return a
}

func (a *allocMeter) metrics(m map[string]float64, kcycles float64) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	gc, cpu := gcCPUSeconds()
	m["sim.allocs_per_kcycle"] = float64(now.Mallocs-a.ms.Mallocs) / kcycles
	m["sim.alloc_kb_per_kcycle"] = float64(now.TotalAlloc-a.ms.TotalAlloc) / 1024 / kcycles
	m["sim.gc_cpu_pct"] = 0
	if cpu > a.cpuBase {
		m["sim.gc_cpu_pct"] = 100 * (gc - a.gc) / (cpu - a.cpuBase)
	}
}

// variant is one way to build and run the ratio point through a public
// option; the A/B ratios divide the p10 run times of two variants.
type variant struct {
	name      string
	build     []gpu.BuildOption
	health    gpu.HealthOptions
	unchecked bool // (*System).Run instead of RunChecked
}

// pointRatios runs the variants interleaved (one round = every variant once,
// so a host phase hits all of them alike), checks that every variant returns
// the default's Results byte for byte, and returns the ratio metrics plus the
// number of variant runs attempted and failed.
func pointRatios(sc scale, job gpu.Job, m map[string]float64) (attempted, failed int) {
	discard := simmetrics.SinkFunc(func(*simmetrics.Batch) {})
	variants := []variant{
		{name: "default"},
		{name: "legacy", health: gpu.HealthOptions{LegacyTick: true}},
		{name: "shards2", health: gpu.HealthOptions{Shards: 2}},
		{name: "nopool", build: []gpu.BuildOption{gpu.WithoutPool()}},
		{name: "metrics", health: gpu.HealthOptions{Metrics: &simmetrics.Options{Every: 1000, Sink: discard}}},
		{name: "unchecked", unchecked: true},
	}
	runMs := map[string][]float64{}
	var ref []byte
	for round := 0; round < sc.RatioRounds; round++ {
		for _, v := range variants {
			attempted++
			sys, err := gpu.NewSystemChecked(job.Cfg, job.D, job.App, v.build...)
			if err != nil {
				failed++
				continue
			}
			var r gpu.Results
			t0 := time.Now()
			if v.unchecked {
				r = sys.Run()
			} else {
				r, err = sys.RunChecked(v.health)
			}
			el := time.Since(t0)
			if checkResults(job, r, err) != nil {
				failed++
				continue
			}
			got := resultsJSON(r)
			if ref == nil {
				ref = got
			} else if !bytes.Equal(got, ref) {
				failed++ // a knob documented as result-neutral changed the results
				continue
			}
			runMs[v.name] = append(runMs[v.name], ms(el))
		}
	}
	base := p10(runMs["default"])
	m["sim.legacy_tick_ratio"] = p10(runMs["legacy"]) / base
	m["sim.shards2_ratio"] = base / p10(runMs["shards2"])
	m["mem.nopool_ratio"] = p10(runMs["nopool"]) / base
	m["metrics.sampling_overhead_pct"] = 100 * (p10(runMs["metrics"]) - base) / base
	m["health.overhead_pct"] = 100 * (base - p10(runMs["unchecked"])) / p10(runMs["unchecked"])
	return attempted, failed
}

// experimentsRigs times the sweep layer around one small point and one
// 12-point job: the supervisor's cost over a direct run, the journal's
// fsynced record, the content key, and RunAll's 2-worker speed-up.
func experimentsRigs(sc scale, f *serviceFixture, m map[string]float64) error {
	dir, err := os.MkdirTemp(f.runDir, "exp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	first := f.firstPoint()
	var jobs []gpu.Job // the first job's points
	for _, p := range f.pts[0] {
		if p != nil {
			jobs = append(jobs, p.Job)
		}
	}

	// Supervisor.RunOne (journal skip probe, panic barrier, retry policy,
	// fsynced record) against a direct gpu.RunChecked of the same point,
	// interleaved. Each RunOne gets a fresh journal, or it would skip. The
	// overhead is a few hundred microseconds under a run of tens of
	// milliseconds, so this takes more rounds than the A/B ratios do.
	rounds := 3*sc.RatioRounds + 2
	var direct, supervised []float64
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		r, err := gpu.RunChecked(first.Job.Cfg, first.Job.D, first.Job.App, gpu.HealthOptions{})
		direct = append(direct, us(time.Since(t0)))
		if err := checkResults(first.Job, r, err); err != nil {
			return fmt.Errorf("direct %s: %w", first.ID, err)
		}
		j, err := experiments.OpenJournal(filepath.Join(dir, fmt.Sprintf("sup-%d.jsonl", i)))
		if err != nil {
			return err
		}
		sup := &experiments.Supervisor{Journal: j}
		t0 = time.Now()
		r, err = sup.RunOne(first.Job)
		supervised = append(supervised, us(time.Since(t0)))
		j.Close()
		if err := checkResults(first.Job, r, err); err != nil {
			return fmt.Errorf("supervised %s: %w", first.ID, err)
		}
	}
	m["experiments.supervisor_overhead_us"] = p10(supervised) - p10(direct)

	j, err := experiments.OpenJournal(filepath.Join(dir, "record.jsonl"))
	if err != nil {
		return err
	}
	n := 0
	m["experiments.journal_record_us"] = rigNs(scale{RigBatches: 2 * sc.RigBatches}, func() int {
		j.Record(fmt.Sprintf("k%d", n), first.Res, nil)
		n++
		return 1
	}) / 1e3
	j.Close()

	keyOps := max(sc.RigCycles/20, 10)
	var sink int
	m["experiments.pointkey_us"] = rigNs(sc, func() int {
		for i := 0; i < keyOps; i++ {
			sink += len(experiments.PointKey(first.Job, nil, nil))
		}
		return keyOps
	}) / 1e3
	_ = sink

	// RunAll at Workers 1 and 2 on one job's points, interleaved.
	var w1, w2 []float64
	for i := 0; i < max(sc.RatioRounds/2, 1); i++ {
		for _, workers := range []int{1, 2} {
			sup := &experiments.Supervisor{Workers: workers}
			t0 := time.Now()
			_, errs := sup.RunAll(jobs)
			el := ms(time.Since(t0))
			for k, err := range errs {
				if err != nil {
					return fmt.Errorf("RunAll job %d: %w", k, err)
				}
			}
			if workers == 1 {
				w1 = append(w1, el)
			} else {
				w2 = append(w2, el)
			}
		}
	}
	m["experiments.runall_w2_speedup"] = p10(w1) / p10(w2)
	return nil
}

// serviceLayer measures the service and farm layers on the 48 small points:
// cold passes through fresh servers (traced), the cached re-POSTs against
// the last one, one farm pass, and the lease/store/spec rigs. It returns the
// points attempted and failed across all of it.
func serviceLayer(sc scale, f *serviceFixture, tr *tracer, m map[string]float64) (attempted, failed int, err error) {
	workers := runtime.NumCPU()
	coldPasses := max(sc.RatioRounds/2, 1)
	var submit, firstRes, makespan, lifecycle []float64
	var cachedJob, cachedPass []float64
	for i := 0; i < coldPasses; i++ {
		last := i == coldPasses-1
		life, err := f.withServer(serve.Options{Workers: workers}, nil, func(srv *serve.Server, cl serviceClient) error {
			pass, err := f.runJobs(cl, tr, nil)
			if err != nil {
				return err
			}
			attempted += f.valid
			failed += pass.Failed
			submit = append(submit, pass.SubmitMs...)
			firstRes = append(firstRes, pass.FirstResultMs[0]) // job 0 only: the others queue behind it
			makespan = append(makespan, ms(pass.End.Sub(pass.Start)))
			if !last {
				return nil
			}
			// The warm server: every re-POSTed point is a store read at
			// admission, beside the cold pass's store writes.
			m["serve.store_misses"] = float64(srv.Stats().CacheMisses)
			for rep := 0; rep < sc.CachedRepeats; rep++ {
				pass, err := f.runJobs(cl, nil, nil)
				if err != nil {
					return err
				}
				attempted += f.valid
				failed += pass.Failed
				cachedJob = append(cachedJob, pass.JobMs...)
				cachedPass = append(cachedPass, ms(pass.End.Sub(pass.Start)))
			}
			m["serve.store_hits"] = float64(srv.Stats().CacheHits)
			return nil
		})
		if err != nil {
			return attempted, failed, err
		}
		lifecycle = append(lifecycle, ms(life))
	}
	cold := p10(makespan)
	m["serve.submit_ms"] = p10(submit)
	m["serve.first_result_ms"] = p10(firstRes)
	m["serve.new_close_ms"] = p10(lifecycle)
	m["serve.overhead_ms_per_point"] = (cold*float64(workers) - ms(f.directTotal)) / float64(f.valid)
	m["serve.cached_job_ms"] = p10(cachedJob)
	m["serve.cached_points_per_s"] = float64(f.valid) / (p10(cachedPass) / 1e3)

	fr, err := f.farmPass(tr)
	if err != nil {
		return attempted, failed, fmt.Errorf("farm pass: %w", err)
	}
	attempted += f.valid
	failed += fr.Failed
	m["farm.points_per_s"] = float64(f.valid) / fr.Elapsed.Seconds()
	m["farm.vs_local_ratio"] = ms(fr.Elapsed) / cold
	m["farm.leases"] = float64(fr.Leases)
	m["farm.duplicates"] = float64(fr.Duplicates)
	m["farm.lost"] = float64(fr.Lost)
	failed += fr.Duplicates + fr.Lost // every leased point resolves exactly once

	a, fl, err := f.leaseRoundtrip(m)
	attempted, failed = attempted+a, failed+fl
	if err != nil {
		return attempted, failed, fmt.Errorf("lease round-trip: %w", err)
	}
	if err := f.storeAndSpecRigs(sc, m); err != nil {
		return attempted, failed, err
	}
	return attempted, failed, nil
}

// leaseRoundtrip times Client.Acquire + Client.Complete of one pre-computed
// point, once per point, against a coordinator-only server; the jobs finish
// from the uploads alone and their rows are checked like any others.
func (f *serviceFixture) leaseRoundtrip(m map[string]float64) (attempted, failed int, err error) {
	var rt []float64
	_, err = f.withServer(serve.Options{CoordinatorOnly: true}, nil, func(_ *serve.Server, cl serviceClient) error {
		upload := func(ids []string, _ []int) error {
			specOf := map[string]int{}
			for i, id := range ids {
				specOf[id] = i
			}
			fc := &farm.Client{Base: cl.base, HTTP: cl.c}
			ctx := cl.ctx
			for {
				t0 := time.Now()
				g, err := fc.Acquire(ctx, "rig", 1)
				if err != nil {
					return err
				}
				if len(g.Points) == 0 {
					return nil // queue drained: every point is uploaded
				}
				lp := g.Points[0]
				comp := serve.LeaseCompletion{Token: lp.Token, Epoch: lp.Epoch, OK: true, Result: &f.pts[specOf[lp.Job]][lp.Index].Res}
				if _, err := fc.Complete(ctx, g.ID, []serve.LeaseCompletion{comp}); err != nil {
					return err
				}
				rt = append(rt, ms(time.Since(t0)))
			}
		}
		pass, err := f.runJobs(cl, nil, upload)
		attempted, failed = f.valid, pass.Failed
		return err
	})
	m["farm.lease_roundtrip_ms"] = p10(rt)
	return attempted, failed, err
}

// storeAndSpecRigs: a content-addressed store lookup and a spec parse.
func (f *serviceFixture) storeAndSpecRigs(sc scale, m map[string]float64) error {
	dir, err := os.MkdirTemp(f.runDir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := serve.OpenStore(filepath.Join(dir, "results.jsonl"), serve.StorePolicy{})
	if err != nil {
		return err
	}
	defer st.Close()
	var keys []string
	for _, pts := range f.pts {
		for _, p := range pts {
			if p != nil {
				k := st.Key(p.Job, nil)
				st.Journal().Record(k, p.Res, nil)
				keys = append(keys, k)
			}
		}
	}
	ops := max(sc.RigCycles/10, 10)
	hits := 0
	m["serve.store_lookup_us"] = rigNs(sc, func() int {
		for i := 0; i < ops; i++ {
			if _, ok := st.Lookup(keys[i%len(keys)]); ok {
				hits++
			}
		}
		return ops
	}) / 1e3
	if hits == 0 {
		return fmt.Errorf("store rig: no lookup hit")
	}
	enc := f.specs[0].Encode()
	parses := max(sc.RigCycles/100, 10)
	m["serve.spec_parse_us"] = rigNs(sc, func() int {
		for i := 0; i < parses; i++ {
			if _, err := serve.ParseSweepSpec(enc); err != nil {
				return 0
			}
		}
		return parses
	}) / 1e3
	return nil
}

// Command dcl1explore sweeps the two design knobs of the paper — DC-L1 node
// count Y (aggregation, Section IV) and cluster count Z (sharing
// granularity, Section VI) — for one workload, and prints speedup, miss
// rate, replicas, and NoC area for every point, plus the best
// performance-per-area design.
//
// Usage:
//
//	dcl1explore -app T-AlexNet [-boost] [-cycles 20000]
//	dcl1explore -app T-AlexNet -resume explore.jsonl   # journal; re-run resumes
//	dcl1explore -app T-AlexNet -chaos heavy -retries 2 -deadline 30s
//	dcl1explore -app T-AlexNet -spec-out sweep.json    # emit the grid as a
//	                                                   # sweep spec for dcl1serve
//
// The sweep degrades gracefully: a failed point prints FAILED in its table row
// and the run exits non-zero with a failure table, instead of aborting on the
// first error. SIGINT/SIGTERM cancel the sweep between watchdog slices, so an
// interrupted run flushes its resume journal cleanly and a re-run with the
// same -resume file continues where it stopped.
package main

import (
	"flag"
	"fmt"
	"os"

	"dcl1sim"
	"dcl1sim/internal/cliflags"
	"dcl1sim/internal/experiments"
	"dcl1sim/internal/serve"
)

func main() {
	var (
		boost   = flag.Bool("boost", true, "boost NoC#1 to 2x where the crossbars allow it")
		specOut = flag.String("spec-out", "", "write the sweep spec JSON (the grid this command walks, POSTable to dcl1serve) to this file and exit")

		spec = cliflags.Spec{SweepSpec: serve.SweepSpec{App: "T-AlexNet", Cycles: 16000, Warmup: 8000}}
		run  cliflags.Run
	)
	spec.Register(flag.CommandLine, "app", "cycles", "warmup", "chaos", "modules", "power")
	run.Register(flag.CommandLine, "health", "workers", "retries", "resume", "metrics")
	flag.BoolVar(&run.Verbose, "v", false, "print each simulation as it runs")
	flag.Parse()

	// The point grid is a sweep spec: the exact spec this command walks —
	// chaos, -modules and -power-cap included — can be emitted with
	// -spec-out and POSTed to dcl1serve, which expands it to the same keyed
	// points.
	spec.SweepSpec = serve.ExploreSpec(spec.SweepSpec, *boost)
	sweep, err := spec.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *specOut != "" {
		if err := os.WriteFile(*specOut, append(sweep.Encode(), '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote sweep spec (%d points) to %s\n", len(sweep.Designs), *specOut)
		return
	}

	// The sweep runs under the experiments supervisor: panics become typed
	// errors, deadline overruns retry, completed points journal to -resume,
	// and failed points degrade into table holes plus a failure table instead
	// of aborting the whole exploration. An interrupted sweep (Ctrl-C,
	// SIGTERM) cancels between watchdog slices: completed points are already
	// fsynced to the resume journal, so -resume continues cleanly.
	sup, err := run.Supervisor(sweep)
	if err != nil {
		os.Exit(run.Finish(err, nil))
	}
	cfg := sweep.Config()
	grid := sweep.Points()

	type point struct {
		d       dcl1.Design
		speed   float64
		area    float64
		miss    float64
		repl    float64
		canRun  bool
		boosted bool
	}
	// Spec index 0 is the baseline; every later design is one table row.
	pts := make([]point, 0, len(sweep.Designs)-1)
	for _, name := range sweep.Designs[1:] {
		d, err := dcl1.ParseDesign(name)
		if err != nil {
			os.Exit(run.Finish(fmt.Errorf("internal: grid design %q: %v", name, err), nil))
		}
		pts = append(pts, point{d: d, boosted: d.Boost1})
	}

	// Feasibility of the boost: every NoC#1 crossbar must clock 2x. Feasible
	// points (plus the baseline) are simulated as one batch across -workers
	// goroutines; each simulation stays deterministic, so the sweep output is
	// identical for any worker count.
	for i := range pts {
		p := &pts[i]
		p.canRun = grid[i+1].Err == nil
		if p.boosted {
			nspec := dcl1.DesignNoC(cfg, p.d)
			for _, x := range nspec.Xbars {
				if x.FreqMHz > dcl1.NoCMaxFreqMHz(x.In, x.Out) {
					p.canRun = false
				}
			}
		}
	}
	jobs := []dcl1.Job{grid[0].Job}
	jobOf := make([]int, len(pts))
	for i := range pts {
		jobOf[i] = -1
		if pts[i].canRun {
			jobOf[i] = len(jobs)
			jobs = append(jobs, grid[i+1].Job)
		}
	}
	results, errs := sup.RunAll(jobs)
	var fails []experiments.Failure
	for i, err := range errs {
		if err != nil {
			fails = append(fails, experiments.Failure{Design: jobs[i].D.Name(), App: sweep.App, Err: err})
		}
	}
	// Without the baseline there is nothing to normalize against; everything
	// else degrades into per-point holes below.
	if errs[0] != nil {
		os.Exit(run.Finish(fmt.Errorf("baseline failed: %w", errs[0]), fails))
	}

	base := results[0]
	baseNoC := dcl1.DesignNoC(cfg, dcl1.Design{Kind: dcl1.Baseline})
	fmt.Printf("app %s: baseline IPC %.2f, miss %.2f, replication %.2f\n\n",
		sweep.App, base.IPC, base.L1MissRate, base.ReplicationRatio)

	fmt.Printf("%-18s %8s %8s %9s %9s %8s\n", "design", "speedup", "miss", "replicas", "NoC area", "boostOK")
	best := -1
	bestScore := 0.0
	for i := range pts {
		p := &pts[i]
		if !p.canRun {
			fmt.Printf("%-18s %8s\n", p.d.Name(), "infeasible (fmax)")
			continue
		}
		if errs[jobOf[i]] != nil {
			fmt.Printf("%-18s %8s\n", p.d.Name(), "FAILED")
			continue
		}
		r := results[jobOf[i]]
		noc := dcl1.DesignNoC(cfg, p.d)
		p.speed = r.IPC / base.IPC
		p.miss = r.L1MissRate
		p.repl = r.MeanReplicas
		p.area = noc.Area() / baseNoC.Area()
		score := p.speed / p.area
		if score > bestScore {
			bestScore, best = score, i
		}
		fmt.Printf("%-18s %7.2fx %8.2f %9.2f %8.2fx %8v\n",
			p.d.Name(), p.speed, p.miss, p.repl, p.area, p.canRun)
	}
	if best >= 0 {
		fmt.Printf("\nbest performance-per-NoC-area: %s (%.2fx speedup at %.2fx area)\n",
			pts[best].d.Name(), pts[best].speed, pts[best].area)
	}
	os.Exit(run.Finish(nil, fails))
}

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
//	dcl1explore -app T-AlexNet -chaos heavy -retries 2 -point-deadline 30s
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
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"dcl1sim"
	"dcl1sim/internal/cliflags"
	"dcl1sim/internal/experiments"
	"dcl1sim/internal/serve"
)

func main() {
	var (
		appName = flag.String("app", "T-AlexNet", "application to explore")
		boost   = flag.Bool("boost", true, "boost NoC#1 to 2x where the crossbars allow it")
		cycles  = flag.Int64("cycles", 16000, "measurement window in core cycles")
		warmup  = flag.Int64("warmup", 8000, "warmup window in core cycles")
		specOut = flag.String("spec-out", "", "write the sweep spec JSON (the grid this command walks, POSTable to dcl1serve) to this file and exit")
		verbose = flag.Bool("v", false, "print each simulation as it runs")

		health    cliflags.Health
		chaos     cliflags.Chaos
		engine    = cliflags.Engine{Workers: 1}
		retry     cliflags.Retry
		journal   cliflags.Journal
		telemetry cliflags.Telemetry
		multi     cliflags.Multi
	)
	health.Register(flag.CommandLine)
	chaos.Register(flag.CommandLine)
	engine.Register(flag.CommandLine)
	retry.Register(flag.CommandLine)
	journal.Register(flag.CommandLine)
	telemetry.Register(flag.CommandLine)
	multi.Register(flag.CommandLine)
	flag.Parse()

	app, ok := dcl1.AppByName(*appName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown app %q\n", *appName)
		os.Exit(1)
	}

	// The point grid is the shared sweep-spec encoding: the exact spec this
	// command walks can be emitted with -spec-out and POSTed to dcl1serve,
	// which expands it to the same jobs (same memo keys, same results).
	spec := serve.ExploreSpec(*appName, *boost, *cycles, *warmup)
	if chaos.Preset != "" && chaos.Preset != "off" {
		spec.Chaos = chaos.Preset
		spec.ChaosSeed = chaos.Seed
	}
	// -modules/-link-* turn the grid into a multi-GPU sweep: every point is
	// assembled into that many linked modules. The fields ride along in
	// -spec-out, so the POSTed sweep names the same machines.
	if multi.Modules >= 2 {
		spec.Modules = multi.Modules
		spec.LinkGBps = multi.LinkGBps
		spec.LinkLat = multi.LinkLat
	} else if multi.LinkGBps > 0 || multi.LinkLat > 0 {
		fmt.Fprintln(os.Stderr, "-link-gbps/-link-lat need -modules 2 or more")
		os.Exit(1)
	}
	if _, err := serve.ParseSweepSpec(append(spec.Encode(), '\n')); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *specOut != "" {
		if err := os.WriteFile(*specOut, append(spec.Encode(), '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote sweep spec (%d points) to %s\n", len(spec.Designs), *specOut)
		return
	}

	// An interrupted sweep (Ctrl-C, SIGTERM) cancels between watchdog
	// slices: completed points are already fsynced to the resume journal, so
	// nothing is lost mid-write and -resume continues cleanly.
	sigCtx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()

	cfg := spec.Config()
	opts := dcl1.HealthOptions{Ctx: sigCtx}
	health.Apply(&opts)
	if err := chaos.Apply(&opts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	closeSink, err := telemetry.Apply(&opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer closeSink()

	// The sweep runs under the experiments supervisor: panics become typed
	// errors, deadline overruns retry, completed points journal to -resume,
	// and failed points degrade into table holes plus a failure table instead
	// of aborting the whole exploration.
	sup := &experiments.Supervisor{
		Health:        opts,
		Workers:       engine.Workers,
		Retry:         retry.Policy(),
		PointDeadline: retry.PointDeadline,
	}
	if *verbose {
		sup.Progress = os.Stderr
	}
	if j, err := journal.Open(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	} else if j != nil {
		defer j.Close()
		sup.Journal = j
	}

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
	allJobs, jobErrs := spec.Jobs()
	pts := make([]point, 0, len(spec.Designs)-1)
	for _, name := range spec.Designs[1:] {
		d, err := dcl1.ParseDesign(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "internal: grid design %q: %v\n", name, err)
			os.Exit(1)
		}
		pts = append(pts, point{d: d, boosted: d.Boost1})
	}

	// Feasibility of the boost: every NoC#1 crossbar must clock 2x. Feasible
	// points (plus the baseline) are simulated as one batch across -workers
	// goroutines; each simulation stays deterministic, so the sweep output is
	// identical for any worker count.
	for i := range pts {
		p := &pts[i]
		p.canRun = jobErrs[i+1] == nil
		if p.boosted {
			nspec := dcl1.DesignNoC(cfg, p.d)
			for _, x := range nspec.Xbars {
				if x.FreqMHz > dcl1.NoCMaxFreqMHz(x.In, x.Out) {
					p.canRun = false
				}
			}
		}
	}
	jobs := []dcl1.Job{allJobs[0]}
	jobOf := make([]int, len(pts))
	for i := range pts {
		jobOf[i] = -1
		if pts[i].canRun {
			jobOf[i] = len(jobs)
			jobs = append(jobs, allJobs[i+1])
		}
	}
	results, errs := sup.RunAll(jobs)
	var fails []experiments.Failure
	for i, err := range errs {
		if err != nil {
			fails = append(fails, experiments.Failure{Design: jobs[i].D.Name(), App: app.Name, Err: err})
		}
	}
	// Without the baseline there is nothing to normalize against; everything
	// else degrades into per-point holes below.
	if errs[0] != nil {
		fmt.Fprintf(os.Stderr, "baseline failed: %v\n", errs[0])
		dcl1.WriteHealthDump(os.Stderr, errs[0])
		experiments.WriteFailureTable(os.Stderr, fails)
		os.Exit(1)
	}

	base := results[0]
	baseNoC := dcl1.DesignNoC(cfg, dcl1.Design{Kind: dcl1.Baseline})
	fmt.Printf("app %s: baseline IPC %.2f, miss %.2f, replication %.2f\n\n",
		app.Name, base.IPC, base.L1MissRate, base.ReplicationRatio)

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
		mark := ""
		if score > bestScore {
			bestScore, best = score, i
		}
		fmt.Printf("%-18s %7.2fx %8.2f %9.2f %8.2fx %8v%s\n",
			p.d.Name(), p.speed, p.miss, p.repl, p.area, p.canRun, mark)
	}
	if best >= 0 {
		fmt.Printf("\nbest performance-per-NoC-area: %s (%.2fx speedup at %.2fx area)\n",
			pts[best].d.Name(), pts[best].speed, pts[best].area)
	}
	if errors.Is(sigCtx.Err(), context.Canceled) {
		fmt.Fprintln(os.Stderr, "interrupted: journaled points are safe; re-run with the same -resume file to continue")
	}
	if experiments.WriteFailureTable(os.Stderr, fails) > 0 {
		os.Exit(1)
	}
}

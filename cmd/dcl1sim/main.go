// Command dcl1sim runs one application on one cache organization and prints
// the measurements.
//
// Usage:
//
//	dcl1sim -app T-AlexNet -design Sh40+C10+Boost [-cores 80] [-cycles 40000]
//	dcl1sim -app T-AlexNet -metrics-out run.ndjson          # live metric batches
//	dcl1sim -app T-AlexNet -power-cap 60 -power-zone module # capped run
//	dcl1sim -list
//
// Runs execute under the simulation health layer: a wedged run aborts with a
// deadlock diagnosis instead of hanging, -deadline bounds wall-clock time,
// and failures exit non-zero with a diagnostic dump (-health-dump redirects
// the dump to a file). -metrics-out samples the live metric registry every
// -metrics-every cycles into NDJSON batches; -power-cap arms the power-zone
// governor, which throttles core issue whenever the zone's metered watts
// exceed the budget.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"dcl1sim"
	"dcl1sim/internal/cliflags"
	"dcl1sim/internal/serve"
)

func main() {
	var (
		sched   = flag.String("sched", "rr", "CTA scheduler: rr or distributed")
		list    = flag.Bool("list", false, "list applications and exit")
		cfgPath = flag.String("config", "", "machine configuration JSON file (overrides other machine flags)")
		asJSON  = flag.Bool("json", false, "emit results as JSON")

		spec = cliflags.Spec{
			SweepSpec: serve.SweepSpec{App: "T-AlexNet", Seed: 1},
			Design:    "Sh40+C10+Boost",
		}
		run cliflags.Run
	)
	spec.Register(flag.CommandLine, "app", "design", "cores", "cycles", "warmup", "seed", "chaos", "modules", "power")
	run.Register(flag.CommandLine, "health", "metrics", "health-dump")
	flag.Parse()
	if *sched != "rr" && *sched != "distributed" {
		fmt.Fprintf(os.Stderr, "dcl1sim: -sched %q: want rr or distributed\n", *sched)
		os.Exit(2)
	}

	if *list {
		fmt.Printf("%-14s %-10s %-22s %6s %6s\n", "NAME", "SUITE", "CLASS", "REPL", "MISS")
		for _, a := range dcl1.Apps() {
			fmt.Printf("%-14s %-10s %-22s %5.0f%% %5.0f%%\n",
				a.Name, a.Suite, className(a.Class), a.PaperReplRatio*100, a.PaperMissRate*100)
		}
		return
	}

	sweep, err := spec.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// -config replaces the spec's machine: a Config has knobs the spec does
	// not carry. The point is still validated on the loaded machine's shape.
	// A window given on the command line overrides the file's, and so does a
	// -seed given on it; a file without a Seed runs the flag's default.
	var cfg dcl1.Config
	if *cfgPath != "" {
		f, err := os.Open(*cfgPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg, err = dcl1.LoadConfig(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		seedSet := false
		flag.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
		if seedSet || cfg.Seed == 0 {
			cfg.Seed = sweep.Seed
		}
		if sweep.Cycles != 0 {
			cfg.MeasureCycles = sweep.Cycles
		}
		if sweep.Warmup != 0 {
			cfg.WarmupCycles = sweep.Warmup
		}
		sweep.Cores, sweep.L2Slices, sweep.Channels, sweep.Seed = cfg.Cores, cfg.L2Slices, cfg.Channels, cfg.Seed
	}

	sup, err := run.Supervisor(sweep)
	if err != nil {
		os.Exit(run.Finish(err, nil))
	}
	pt := sweep.Points()[0]
	job, err := pt.Job, pt.Err
	if *cfgPath != "" {
		job.Cfg = cfg
	}
	if *sched == "distributed" {
		job.Cfg.Sched = dcl1.Distributed
	}
	var r dcl1.Results
	if err == nil {
		r, err = sup.RunOne(job)
	}
	if code := run.Finish(err, nil); code != 0 {
		os.Exit(code)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	fmt.Print(r.Summary())
}

func className(c interface{ String() string }) string { return c.String() }

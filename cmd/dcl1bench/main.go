// Command dcl1bench regenerates the paper's tables and figures.
//
// Usage:
//
//	dcl1bench -list                 # show available experiments
//	dcl1bench -run fig14            # regenerate one artifact
//	dcl1bench -run fig14,fig16      # several
//	dcl1bench -run all              # the full evaluation (minutes)
//	dcl1bench -quick -run fig14     # small machine, smoke-test fidelity
//	dcl1bench -run all -resume sweep.jsonl   # journal points; re-run resumes
//	dcl1bench -run fig14 -chaos light -chaos-seed 7   # under fault injection
//	dcl1bench -run fig14 -metrics-out run.ndjson      # live metric batches
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dcl1sim/internal/cliflags"
	"dcl1sim/internal/experiments"
)

func main() {
	var (
		list   = flag.Bool("list", false, "list experiments")
		exps   = flag.String("run", "", "experiment id(s), comma-separated, or 'all'")
		quick  = flag.Bool("quick", false, "small machine and windows (fast, smoke-test fidelity)")
		format = flag.String("format", "text", "output format: text or md")
		plot   = flag.Bool("plot", false, "also render ASCII S-curves for single-metric experiments")

		spec cliflags.Spec // chaos, modules and power; the experiments pick apps, designs and windows
		run  cliflags.Run
	)
	spec.Register(flag.CommandLine, "chaos", "modules", "power")
	run.Register(flag.CommandLine, "health", "workers", "retries", "resume", "metrics")
	flag.BoolVar(&run.Verbose, "v", false, "print each simulation as it runs")
	flag.Parse()

	if *list || *exps == "" {
		fmt.Printf("%-10s %s\n", "ID", "TITLE")
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
			fmt.Printf("%-10s   paper: %s\n", "", e.Paper)
		}
		return
	}

	ctx := experiments.NewContext()
	if *quick {
		ctx = experiments.QuickContext()
	}
	sweep, err := spec.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ctx.Design = sweep.FillModules
	// An interrupted sweep (Ctrl-C, SIGTERM) cancels between watchdog
	// slices instead of dying mid-write: completed points are already
	// fsynced to the resume journal, so -resume continues cleanly.
	if ctx.Sup, err = run.Supervisor(sweep); err != nil {
		os.Exit(run.Finish(err, nil))
	}

	var ids []string
	if *exps == "all" {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*exps, ",")
	}
	for _, id := range ids {
		e, ok := experiments.ByID(strings.TrimSpace(id))
		if !ok {
			os.Exit(run.Finish(fmt.Errorf("unknown experiment %q (use -list)", id), nil))
		}
		t0 := time.Now()
		table := ctx.RunExperiment(e)
		if *format == "md" {
			table.Markdown(os.Stdout)
		} else {
			table.Render(os.Stdout)
			fmt.Printf("  (%s in %v)\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
		}
		if *plot {
			for _, col := range table.Columns {
				experiments.SCurve(os.Stdout, table, col, 12)
				fmt.Println()
			}
		}
	}
	// Tables already rendered above carry zero cells for any failed point:
	// the sweep degrades into partial results plus the failure table.
	os.Exit(run.Finish(nil, ctx.Failures()))
}

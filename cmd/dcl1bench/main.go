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
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dcl1sim/internal/cliflags"
	"dcl1sim/internal/experiments"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiments")
		run     = flag.String("run", "", "experiment id(s), comma-separated, or 'all'")
		quick   = flag.Bool("quick", false, "small machine and windows (fast, smoke-test fidelity)")
		verbose = flag.Bool("v", false, "print each simulation as it runs")
		format  = flag.String("format", "text", "output format: text or md")
		plot    = flag.Bool("plot", false, "also render ASCII S-curves for single-metric experiments")

		spec      cliflags.Spec // chaos, modules and power; the experiments pick apps, designs and windows
		health    cliflags.Health
		engine    = cliflags.Engine{Workers: 1}
		retry     cliflags.Retry
		journal   cliflags.Journal
		telemetry cliflags.Telemetry
	)
	spec.Register(flag.CommandLine, "chaos", "modules", "power")
	health.Register(flag.CommandLine)
	engine.Register(flag.CommandLine)
	retry.Register(flag.CommandLine)
	journal.Register(flag.CommandLine)
	telemetry.Register(flag.CommandLine)
	flag.Parse()

	closeSink := func() error { return nil } // replaced when -metrics-out opens
	exit := func(code int) {
		closeSink()
		os.Exit(code)
	}
	defer func() { closeSink() }()

	if *list || *run == "" {
		fmt.Printf("%-10s %s\n", "ID", "TITLE")
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
			fmt.Printf("%-10s   paper: %s\n", "", e.Paper)
		}
		return
	}

	// An interrupted sweep (Ctrl-C, SIGTERM) cancels between watchdog
	// slices instead of dying mid-write: completed points are already
	// fsynced to the resume journal, so -resume continues cleanly.
	sigCtx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()

	ctx := experiments.NewContext()
	if *quick {
		ctx = experiments.QuickContext()
	}
	sweep, err := spec.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	ctx.Design = sweep.FillModules
	ctx.Sup.Health.Ctx = sigCtx
	health.Apply(&ctx.Sup.Health)
	if cs, err := telemetry.Apply(&ctx.Sup.Health); err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	} else {
		closeSink = cs
	}
	ctx.Sup.Health = sweep.Arm(ctx.Sup.Health)
	ctx.Sup.Workers = engine.Workers
	ctx.Sup.Retry = retry.Policy()
	ctx.Sup.PointDeadline = retry.PointDeadline
	if *verbose {
		ctx.Sup.Progress = os.Stderr
	}
	if j, err := journal.Open(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	} else if j != nil {
		defer j.Close()
		ctx.Sup.Journal = j
	}

	var ids []string
	if *run == "all" {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*run, ",")
	}
	for _, id := range ids {
		e, ok := experiments.ByID(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			exit(1)
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
	// the sweep degrades into partial results plus this failure table.
	if errors.Is(sigCtx.Err(), context.Canceled) {
		fmt.Fprintln(os.Stderr, "interrupted: journaled points are safe; re-run with the same -resume file to continue")
	}
	if fails := ctx.Failures(); len(fails) > 0 {
		experiments.WriteFailureTable(os.Stderr, fails)
		exit(1)
	}
}

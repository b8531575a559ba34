// Command dcl1bench regenerates the paper's tables and figures.
//
// Usage:
//
//	dcl1bench -list                 # show available experiments
//	dcl1bench -run fig14            # regenerate one artifact
//	dcl1bench -run fig14,fig16      # several
//	dcl1bench -run all              # the full evaluation (minutes), claims checked
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
	"dcl1sim/internal/serve"
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
	if *format != "text" && *format != "md" {
		fmt.Fprintf(os.Stderr, "dcl1bench: -format %q: want text or md\n", *format)
		os.Exit(2)
	}

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
	// The claims are the paper's shapes on its 80-core machine at full
	// windows; any other machine prints tables only.
	skipClaims := claimsSkipped(*quick, sweep)
	var broken []string
	for _, id := range ids {
		e, ok := experiments.ByID(strings.TrimSpace(id))
		if !ok {
			os.Exit(run.Finish(fmt.Errorf("unknown experiment %q (use -list)", id), nil))
		}
		t0 := time.Now()
		table := ctx.RunExperiment(e)
		var verdicts []experiments.Verdict
		if skipClaims == "" {
			verdicts = e.Verdicts(table)
		}
		if *format == "md" {
			table.Markdown(os.Stdout)
			for _, v := range verdicts {
				fmt.Printf("- %s\n", v)
			}
			if len(verdicts) > 0 {
				fmt.Println()
			}
		} else {
			table.Render(os.Stdout)
			for _, v := range verdicts {
				fmt.Printf("  claim: %s\n", v)
			}
			fmt.Printf("  (%s in %v)\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
		}
		for _, v := range verdicts {
			if !v.OK {
				broken = append(broken, v.Claim)
			}
		}
		if *plot {
			for _, col := range table.Columns {
				experiments.SCurve(os.Stdout, table, col, 12)
				fmt.Println()
			}
		}
	}
	if skipClaims != "" {
		fmt.Printf("claims not evaluated: %s\n", skipClaims)
	}
	if len(broken) > 0 {
		err = fmt.Errorf("%d broken claim(s): %s", len(broken), strings.Join(broken, ", "))
	}
	// Tables already rendered above carry zero cells for any failed point:
	// the sweep degrades into partial results plus the failure table.
	os.Exit(run.Finish(err, ctx.Failures()))
}

// claimsSkipped says why this run is not the paper's machine, or "" when it
// is: the claims hold for the 80-core GPU at full windows, unperturbed.
func claimsSkipped(quick bool, sweep serve.SweepSpec) string {
	var why []string
	if quick {
		why = append(why, "-quick shrinks the machine and windows")
	}
	if sweep.Chaos != "" {
		why = append(why, "-chaos injects faults")
	}
	if sweep.Modules >= 2 {
		why = append(why, "-modules links several GPUs")
	}
	if sweep.PowerCap > 0 {
		why = append(why, "-power-cap throttles the machine")
	}
	return strings.Join(why, "; ")
}

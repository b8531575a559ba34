// Command dcl1trace records and replays workload traces.
//
// Record a synthetic workload into a portable trace file:
//
//	dcl1trace record -app T-AlexNet -out alexnet.trc -cores 80 -ops 2000
//
// Replay a trace (from this tool or converted from a real GPU trace) through
// any cache organization:
//
//	dcl1trace replay -in alexnet.trc -design Sh40+C10+Boost
//
// Inspect a trace:
//
//	dcl1trace info -in alexnet.trc
package main

import (
	"flag"
	"fmt"
	"os"

	"dcl1sim"
	"dcl1sim/internal/cliflags"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	case "info":
		info(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dcl1trace record|replay|info [flags]")
	os.Exit(2)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	appName := fs.String("app", "T-AlexNet", "application to capture")
	out := fs.String("out", "workload.trc", "output trace file")
	cores := fs.Int("cores", 80, "machine core count the trace targets")
	ops := fs.Int("ops", 2000, "operations recorded per wavefront")
	seed := fs.Uint64("seed", 1, "workload seed")
	fs.Parse(args)

	app, ok := dcl1.AppByName(*appName)
	if !ok {
		fatal("unknown app %q", *appName)
	}
	tr := dcl1.CaptureTrace(app, *cores, *ops, dcl1.RoundRobin, *seed)
	f, err := os.Create(*out)
	if err != nil {
		fatal("create: %v", err)
	}
	defer f.Close()
	if err := dcl1.WriteTrace(f, tr); err != nil {
		fatal("write: %v", err)
	}
	fmt.Printf("recorded %s: %d cores x %s waves x %d ops -> %s\n",
		tr.Name, tr.Cores, waves(tr), tr.OpsPer, *out)
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("in", "workload.trc", "input trace file")
	design := fs.String("design", "Sh40+C10+Boost", "cache organization")
	cycles := fs.Int64("cycles", 0, "measurement window (core cycles)")
	var spec cliflags.Spec // only the power cap: a trace file is not a named app
	var run cliflags.Run
	spec.Register(fs, "power")
	run.Register(fs, "health", "metrics")
	fs.Parse(args)
	sweep, err := spec.Resolve()
	if err != nil {
		fatal("%v", err)
	}

	f, err := os.Open(*in)
	if err != nil {
		fatal("open: %v", err)
	}
	defer f.Close()
	tr, err := dcl1.ReadTrace(f)
	if err != nil {
		fatal("read: %v", err)
	}
	d, err := dcl1.ParseDesign(*design)
	if err != nil {
		fatal("%v", err)
	}
	sup, err := run.Supervisor(sweep)
	if err != nil {
		os.Exit(run.Finish(err, nil))
	}
	r, err := sup.RunOne(dcl1.Job{Cfg: dcl1.Config{Cores: tr.Cores, MeasureCycles: *cycles}, D: d, App: tr})
	if code := run.Finish(err, nil); code != 0 {
		os.Exit(code)
	}
	fmt.Printf("trace:             %s (%d cores, %s waves/core)\n", tr.Name, tr.Cores, waves(tr))
	fmt.Printf("design:            %s\n", r.Design)
	fmt.Printf("IPC:               %.3f\n", r.IPC)
	fmt.Printf("L1 miss rate:      %.3f\n", r.L1MissRate)
	fmt.Printf("replication ratio: %.3f\n", r.ReplicationRatio)
	fmt.Printf("mean load RTT:     %.1f (p50~%d, p99~%d)\n", r.MeanRTT, r.P50RTT, r.P99RTT)
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "workload.trc", "input trace file")
	fs.Parse(args)
	f, err := os.Open(*in)
	if err != nil {
		fatal("open: %v", err)
	}
	defer f.Close()
	tr, err := dcl1.ReadTrace(f)
	if err != nil {
		fatal("read: %v", err)
	}
	fmt.Printf("name:  %s\ncores: %d\nwaves: %s per core\nops:   %d per wavefront\n",
		tr.Name, tr.Cores, waves(tr), tr.OpsPer)
}

// waves renders a trace's per-core wavefront count: one number when every
// core runs the same, else the range ("12-24").
func waves(tr *dcl1.Trace) string {
	lo, hi := tr.WaveRange()
	if lo == hi {
		return fmt.Sprint(lo)
	}
	return fmt.Sprintf("%d-%d", lo, hi)
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

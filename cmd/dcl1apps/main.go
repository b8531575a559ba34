// Command dcl1apps inspects the synthetic application suite: the 28 modeled
// GPGPU workloads, their classes, generator parameters, and paper
// fingerprints (Fig 1), optionally measuring a baseline fingerprint.
//
// Usage:
//
//	dcl1apps                 # table of all apps
//	dcl1apps -app C-BFS      # one app's full parameterization
//	dcl1apps -app C-BFS -measure   # plus a measured baseline fingerprint
package main

import (
	"flag"
	"fmt"
	"os"

	"dcl1sim"
	"dcl1sim/internal/cliflags"
)

func main() {
	var (
		appName = flag.String("app", "", "show one application in detail")
		measure = flag.Bool("measure", false, "simulate the baseline fingerprint (slow)")

		// -measure runs the spec's one point: -app on the baseline, built
		// from -modules linked modules when set.
		spec = cliflags.Spec{Design: "Baseline"}
		run  cliflags.Run
	)
	spec.Register(flag.CommandLine, "modules", "power")
	run.Register(flag.CommandLine, "health", "metrics")
	flag.Parse()

	if *appName == "" {
		fmt.Printf("%-14s %-10s %-22s %6s %6s %6s %7s\n",
			"NAME", "SUITE", "CLASS", "WAVES", "SHARED", "FRAC", "STRIDE")
		for _, a := range dcl1.Apps() {
			fmt.Printf("%-14s %-10s %-22s %6d %6d %5.0f%% %7d\n",
				a.Name, a.Suite, a.Class, a.Waves, a.SharedLines, a.SharedFrac*100, a.CampStride)
		}
		return
	}

	a, ok := dcl1.AppByName(*appName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown app %q\n", *appName)
		os.Exit(1)
	}
	fmt.Printf("name:             %s (%s, %s)\n", a.Name, a.Suite, a.Class)
	fmt.Printf("occupancy:        %d wavefronts/core (imbalance %.1f)\n", a.Waves, a.Imbalance)
	fmt.Printf("instruction mix:  %d compute per memory op, blocking every %d\n", a.ComputePerMem, a.BlockEvery)
	fmt.Printf("shared region:    %d lines, %.0f%% of traffic, zipf %.2f\n", a.SharedLines, a.SharedFrac*100, a.SharedZipf)
	if a.CampStride > 1 {
		fmt.Printf("camping:          stride %d lines (%.0f%% of shared draws)\n", a.CampStride, campFrac(a)*100)
	}
	fmt.Printf("private region:   %d lines per wavefront\n", a.PrivateLines)
	fmt.Printf("coalescing:       %d lines per instruction, %d bytes needed per line\n", a.CoalescedLines, bytesOf(a))
	fmt.Printf("traffic mix:      %.0f%% writes, %.0f%% non-L1, %.0f%% atomics\n",
		a.WriteFrac*100, a.NonL1Frac*100, a.AtomicFrac*100)
	fmt.Printf("paper fingerprint (Fig 1): replication %.0f%%, miss %.0f%%\n",
		a.PaperReplRatio*100, a.PaperMissRate*100)

	if *measure {
		spec.App = a.Name
		sweep, err := spec.Resolve()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sup, err := run.Supervisor(sweep)
		if err != nil {
			os.Exit(run.Finish(err, nil))
		}
		pt := sweep.Points()[0]
		var r dcl1.Results
		if err = pt.Err; err == nil {
			r, err = sup.RunOne(pt.Job)
		}
		if code := run.Finish(err, nil); code != 0 {
			os.Exit(code)
		}
		fmt.Printf("measured baseline:         replication %.0f%%, miss %.0f%% (IPC %.2f)\n",
			r.ReplicationRatio*100, r.L1MissRate*100, r.IPC)
	}
}

func campFrac(a dcl1.AppSpec) float64 {
	if a.CampFrac > 0 {
		return a.CampFrac
	}
	return 1
}

func bytesOf(a dcl1.AppSpec) int {
	if a.Bytes > 0 {
		return a.Bytes
	}
	return 32
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// The contract this benchmark is run under: the driver makes
// contractRunsBase + contractRunsPerWorkload x (number of workloads) runs,
// and all of them, with their set-up and two builds, must end within
// contractTotalSeconds.
const (
	contractRunsBase        = 4
	contractRunsPerWorkload = 22
	contractTotalSeconds    = 3420
	contractBuildSeconds    = 2 * 120 // two cold builds of the module and the standard library
)

// declaredOverheadSeconds is, per workload, the wall time of one run outside
// its measured seconds: setupSamples set-ups (each a fresh process: fixtures
// plus one warm-up iteration) and process start/exit, as measured on the
// defining 2-vCPU host in a slow phase. Run length is fixed by the benchmark
// and identical on both commits, so an over-budget configuration is refused,
// never silently shortened.
var declaredOverheadSeconds = map[string]float64{
	"sim-saturated":       setupSamples*3.2 + 1,
	"sim-membound":        setupSamples*1.7 + 1,
	"sim-idle":            setupSamples*0.9 + 1,
	"service-smallpoints": setupSamples*4.0 + 1,
}

// contractBudget returns the wall time the contract's full set of runs needs
// at the given measured seconds per run.
func contractBudget(seconds float64) float64 {
	total, worst := float64(contractBuildSeconds), 0.0
	for _, w := range workloads {
		per := seconds + declaredOverheadSeconds[w.Name]
		total += contractRunsPerWorkload * per
		worst = max(worst, per)
	}
	return total + contractRunsBase*worst
}

// child runs one benchmark run in a fresh process of this binary and returns
// its final JSON line. The child's full output is echoed when echo is set.
func child(o options, w string, seed uint64, echo bool) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	args := []string{"-workload", w, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64)}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if o.out != "" {
		args = append(args, "-out", o.out)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = o.root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to exit
	if echo {
		os.Stdout.Write(out)
	}
	if err != nil {
		return res, fmt.Errorf("run of %s: %w", w, err)
	}
	last := bytes.TrimSpace(out)
	last = last[bytes.LastIndexByte(last, '\n')+1:]
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("run of %s: last line is not the result object: %w", w, err)
	}
	return res, nil
}

// runMany is -all and -selftest: both drive single-workload runs, each in a
// fresh process so rss_mb_peak and setup_s mean what they mean in a real run.
func runMany(o options) error {
	names := workloadNames()
	if o.workload != "" {
		if _, ok := workloadByName(o.workload); !ok {
			return fmt.Errorf("unknown -workload %q", o.workload)
		}
		names = []string{o.workload}
	}
	if need := contractBudget(o.seconds); need > contractTotalSeconds && !o.smoke {
		return fmt.Errorf("refusing: %d runs at %g measured seconds need about %.0f s, over the %d s cap; lower -seconds (run length is never shortened silently)",
			contractRunsBase+contractRunsPerWorkload*len(workloads), o.seconds, need, contractTotalSeconds)
	}
	if o.all {
		for _, w := range names {
			res, err := child(o, w, o.seed, true)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: %d of %d ops failed", w, res.Failed, res.Attempted)
			}
		}
		return nil
	}
	return selftest(o, names)
}

// selftest runs, per workload, two sets of o.runs untraced runs interleaved
// (A1 B1 A2 B2 ...) and checks what the acceptance procedure checks: that the
// two sets' medians disagree by less than each metric's bound. It also
// prints each set's quartiles and spread (IQR / median).
func selftest(o options, names []string) error {
	if o.runs < 2 {
		return fmt.Errorf("-runs must be at least 2")
	}
	o.trace = false
	stamp := newHostStamp(o.root)
	fmt.Printf("selftest: runs_per_set=%d seconds=%g vary_seed=%v\n", o.runs, o.seconds, o.varySeed)
	bad := 0
	for _, w := range names {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < o.runs; i++ {
			seed := o.seed
			if o.varySeed {
				seed = uint64(i + 1)
			}
			for s := range sets {
				res, err := child(o, w, seed, false)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: %d of %d ops failed", w, seed, res.Failed, res.Attempted)
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		fmt.Printf("\n%s\n", w)
		fmt.Printf("  %-18s %-3s %12s %12s %12s %8s   %s\n", "metric", "set", "q1", "median", "q3", "spread", "medians disagree / bound")
		for _, sm := range o.spec.EndToEnd {
			med := [2]float64{}
			for s := range sets {
				q1, _, q3 := quartiles(sets[s][sm.Name])
				med[s] = median(sets[s][sm.Name])
				tail := ""
				if s == 1 {
					// Worse means lower for a "higher is better" metric.
					worse := (med[1] - med[0]) / med[0]
					if sm.Better == "higher" {
						worse = -worse
					}
					verdict := "ok"
					if max(worse, -worse) > sm.Bound {
						verdict = "OVER BOUND"
						bad++
					}
					tail = fmt.Sprintf("%+.2f%% / %.0f%% %s", 100*worse, 100*sm.Bound, verdict)
				}
				fmt.Printf("  %-18s %-3s %12.4f %12.4f %12.4f %7.2f%%   %s\n", sm.Name, string(rune('A'+s)), q1, med[s], q3,
					100*spread(sets[s][sm.Name]), tail)
				fmt.Printf("  %-18s %-3s runs: %.4f\n", "", "", sets[s][sm.Name])
			}
		}
	}
	stamp.LoadavgEnd = loadavg()
	fmt.Printf("\n%s\n", stamp)
	if bad > 0 {
		return fmt.Errorf("selftest: %d metric/workload pair(s) disagree by more than their bound", bad)
	}
	fmt.Println("selftest: every end-to-end metric's set medians agree within its bound on every workload")
	return nil
}

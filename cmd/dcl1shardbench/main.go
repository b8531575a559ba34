// Command dcl1shardbench measures the sharded tick executor against serial
// execution on the saturated benchmark workload (C-BFS, always busy, on the
// clustered Sh8+C2 design) and writes a JSON record. Every variant
// runs the identical simulation; results are bit-identical (the equivalence
// tests prove it), so the record is purely about wall-clock.
//
// On a multi-core host the record is the parallel-speedup evidence; on a
// single-CPU host it is the honest executor-overhead bound (no speedup is
// physically possible). CI runs it on a multi-core runner with
// -assert-speedup 1.3: the command exits nonzero unless the 4-shard run
// beats serial by at least that factor, turning the speedup claim into a
// regression gate.
//
// Usage:
//
//	dcl1shardbench -out bench-sharded.json
//	dcl1shardbench -iters 8 -assert-speedup 1.3
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"dcl1sim"
)

// variant is one measured configuration of the identical simulation.
// modules > 0 assembles the design into that many linked GPU modules (a
// different, 4x-bigger simulation — its numbers only compare against other
// modules variants).
type variant struct {
	key     string
	shards  int
	strided bool
	modules int
}

func main() {
	var (
		out    = flag.String("out", "-", "write the JSON record here ('-' = stdout)")
		iters  = flag.Int("iters", 5, "timed runs per variant (plus one untimed warmup)")
		assert = flag.Float64("assert-speedup", 0,
			"exit nonzero unless shards=4 beats serial by at least this factor (0 disables; needs a multi-core host)")
	)
	flag.Parse()

	app, ok := dcl1.AppByName("C-BFS")
	if !ok {
		fmt.Fprintln(os.Stderr, "dcl1shardbench: app C-BFS not found")
		os.Exit(1)
	}
	cfg := dcl1.Config{
		Cores: 16, L2Slices: 8, Channels: 4,
		WarmupCycles: 1500, MeasureCycles: 4000,
	}
	d := dcl1.Design{Kind: dcl1.Clustered, DCL1s: 8, Clusters: 2}
	simCycles := int64(cfg.WarmupCycles + cfg.MeasureCycles)

	variants := []variant{{key: "serial", shards: 1}}
	for _, n := range []int{2, 4, 8} {
		variants = append(variants, variant{key: fmt.Sprintf("shards_%d", n), shards: n})
	}
	// The strided entries isolate the locality placement win: same shard
	// count, legacy i-mod-n partition.
	for _, n := range []int{4, 8} {
		variants = append(variants, variant{key: fmt.Sprintf("strided_shards_%d", n), shards: n, strided: true})
	}
	// The modules4 entries measure the multi-GPU machine (4 linked modules,
	// each the full Sh8+C2 system): modules are near-independent localities,
	// so sharding should scale at least as well as within one module.
	variants = append(variants,
		variant{key: "modules4_serial", shards: 1, modules: 4},
		variant{key: "modules4_shards_4", shards: 4, modules: 4},
	)

	results := make(map[string]float64, len(variants))
	for _, v := range variants {
		ns, err := measure(cfg, d, app, v, *iters, simCycles)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcl1shardbench: %s: %v\n", v.key, err)
			os.Exit(1)
		}
		results[v.key] = ns
		fmt.Fprintf(os.Stderr, "%-18s %10.1f ns/sim-cycle\n", v.key, ns)
	}
	serial := results["serial"]
	for _, n := range []int{2, 4, 8} {
		results[fmt.Sprintf("speedup_shards_%d", n)] = round2(serial / results[fmt.Sprintf("shards_%d", n)])
	}
	results["speedup_modules4_shards_4"] = round2(results["modules4_serial"] / results["modules4_shards_4"])

	record := map[string]any{
		"description": "Sharded tick executor vs serial on the saturated workload (C-BFS synthetic, always busy, Sh8+C2), ns of wall-clock per simulated core cycle, locality-aware placement unless prefixed strided_. Results are bit-identical across every variant (TestShardEquivalence, TestShardEquivalenceStridedPlacement); only speed differs. On a single-CPU host the sharded numbers are the executor-overhead bound — no parallel speedup is physically possible there; read the speedup off a multi-core record (the CI bench-sharded artifact).",
		"command":     "go run ./cmd/dcl1shardbench -out bench-sharded.json",
		"goos":        runtime.GOOS,
		"goarch":      runtime.GOARCH,
		"cpus":        runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"metric":      "ns/sim-cycle",
		"workload":    "C-BFS synthetic (always busy), Sh8+C2, 16 cores / 8 L2 slices / 4 channels, 5500 cycles",
		"results":     results,
	}
	enc, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcl1shardbench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "dcl1shardbench:", err)
		os.Exit(1)
	}

	if *assert > 0 {
		got := results["speedup_shards_4"]
		if got < *assert {
			fmt.Fprintf(os.Stderr,
				"dcl1shardbench: shards=4 speedup %.2fx below required %.2fx (serial %.1f, sharded %.1f ns/sim-cycle, %d CPUs)\n",
				got, *assert, serial, results["shards_4"], runtime.NumCPU())
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dcl1shardbench: shards=4 speedup %.2fx >= %.2fx\n", got, *assert)
		m4 := results["speedup_modules4_shards_4"]
		if m4 < *assert {
			fmt.Fprintf(os.Stderr,
				"dcl1shardbench: 4-module shards=4 speedup %.2fx below required %.2fx (serial %.1f, sharded %.1f ns/sim-cycle, %d CPUs)\n",
				m4, *assert, results["modules4_serial"], results["modules4_shards_4"], runtime.NumCPU())
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dcl1shardbench: 4-module shards=4 speedup %.2fx >= %.2fx\n", m4, *assert)
	}
}

// measure times iters identical runs of the variant (after one untimed
// warmup) and returns ns of wall-clock per simulated core cycle.
func measure(cfg dcl1.Config, d dcl1.Design, app dcl1.Workload, v variant, iters int, simCycles int64) (float64, error) {
	if v.modules > 0 {
		d.Modules = v.modules
	}
	run := func() error {
		opts := []dcl1.RunOption{dcl1.WithShards(v.shards)}
		if v.strided {
			opts = append(opts, dcl1.WithStridedPlacement())
		}
		r, err := dcl1.Run(cfg, d, app, opts...)
		if err != nil {
			return err
		}
		if r.MeasuredCycles != cfg.MeasureCycles {
			return fmt.Errorf("measured %d cycles, want %d", r.MeasuredCycles, cfg.MeasureCycles)
		}
		return nil
	}
	if err := run(); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := run(); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	return round2(float64(elapsed.Nanoseconds()) / float64(simCycles*int64(iters))), nil
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}

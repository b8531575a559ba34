// Traces: record a workload once, then replay the identical instruction
// stream through several cache organizations. The trace file format is
// portable, so real GPU traces (converted from an instrumentation tool) can
// be evaluated the same way.
package main

import (
	"bytes"
	"fmt"
	"log"

	"dcl1sim"
)

func main() {
	app, _ := dcl1.AppByName("C-BFS")

	// Record 1500 operations per wavefront for a 32-core machine.
	const cores = 32
	tr := dcl1.CaptureTrace(app, cores, 1500, dcl1.RoundRobin, 42)
	var buf bytes.Buffer
	if err := dcl1.WriteTrace(&buf, tr); err != nil {
		log.Fatal(err)
	}
	_, waves := tr.WaveRange()
	fmt.Printf("recorded %s: %d cores x %d waves, %.1f KB on the wire\n\n",
		tr.Name, tr.Cores, waves, float64(buf.Len())/1024)

	// Reload (as a user with a trace file would) and replay everywhere.
	loaded, err := dcl1.ReadTrace(&buf)
	if err != nil {
		log.Fatal(err)
	}
	cfg := dcl1.Config{Cores: cores, L2Slices: 16, Channels: 8,
		WarmupCycles: 4000, MeasureCycles: 10000}
	designs := []dcl1.Design{
		{Kind: dcl1.Baseline},
		{Kind: dcl1.Private, DCL1s: 16},
		{Kind: dcl1.Shared, DCL1s: 16},
		{Kind: dcl1.Clustered, DCL1s: 16, Clusters: 4, Boost1: true},
	}
	var baseIPC float64
	for i, d := range designs {
		r, err := dcl1.Run(cfg, d, loaded)
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			baseIPC = r.IPC
		}
		fmt.Printf("%-16s IPC %6.2f (%.2fx)   miss %.2f   replicas %.1f\n",
			r.Design, r.IPC, r.IPC/baseIPC, r.L1MissRate, r.MeanReplicas)
	}
}

package experiments

import (
	"fmt"

	"dcl1sim/internal/gpu"
	"dcl1sim/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "ext-mesh",
		Title: "Extension: 2D-mesh NoC baseline vs crossbar baseline vs ours",
		Paper: "Not in the paper; Section VIII notes the designs improve further with boosted NoC resources",
		Run:   runExtMesh,
	})
}

// runExtMesh compares the monolithic-crossbar baseline against the same
// machine on a scalable 2D mesh, and against the DC-L1 design. The mesh
// trades the crossbar's single-hop latency for per-hop serialization; its
// NoC area grows linearly with endpoints instead of quadratically.
func runExtMesh(ctx *Context) *Table {
	t := &Table{
		ID:      "ext-mesh",
		Title:   "Mesh baseline (IPC vs crossbar baseline, class geomeans)",
		Columns: []string{"sensitive", "insensitive", "NoC area"},
	}
	baseArea := gpu.DesignNoCSpec(ctx.Base, ctx.design("Baseline")).Area()
	entries := []struct{ label, name string }{
		{"Baseline(xbar)", "Baseline"},
		{"MeshBase", "MeshBase"},
		{"Sh40+C10+Boost", "Sh40+C10+Boost"},
	}
	for _, e := range entries {
		d := ctx.design(e.name)
		sens, _ := ctx.gain(ctx.Base, d, workload.Sensitive())
		insens, _ := ctx.gain(ctx.Base, d, workload.InsensitiveApps())
		area := gpu.DesignNoCSpec(ctx.Base, d).Area() / baseArea
		t.Rows = append(t.Rows, Row{Label: e.label, Cells: []float64{sens, insens, area}})
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"mesh routers: %d endpoints on a near-square grid; XY routing; per-hop 32B links",
		ctx.Base.Cores+ctx.Base.L2Slices))
	t.Notes = append(t.Notes,
		"expected shape: the mesh loses heavily on memory-bound apps (5-flit replies serialize at every hop) — GPU vendors use crossbars/hierarchies for exactly this reason",
		"area caveat: the DSENT-like model is calibrated for big crossbars and over-charges the mesh's many small router buffers")
	return t
}

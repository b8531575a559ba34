package experiments

import (
	"dcl1sim/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "ext-multiprog",
		Title: "Extension: concurrent kernels (partitioned multiprogramming)",
		Paper: "Not in the paper; clusters double as isolation domains for co-running apps",
		Run:   runExtMultiprog,
	})
}

// runExtMultiprog co-runs a replication-sensitive CNN with a streaming app on
// disjoint core halves. Under the fully shared Sh40, the streamer's misses
// wash through every DC-L1 and evict the CNN's deduplicated working set;
// under the clustered design, the streamer only pollutes its own clusters.
func runExtMultiprog(ctx *Context) *Table {
	t := &Table{
		ID:      "ext-multiprog",
		Title:   "T-AlexNet co-running with C-BLK (IPC vs solo-pair baseline)",
		Columns: []string{"IPC ratio", "miss rate"},
	}
	cnn, _ := workload.ByName("T-AlexNet")
	stream, _ := workload.ByName("C-BLK")
	pair := workload.NewPartition(ctx.Base.Cores, cnn, stream)
	base := ctx.design("Baseline")
	for _, name := range []string{"Baseline", "Sh40", "Sh40+C10+Boost"} {
		d := ctx.design(name)
		ipc, _ := ctx.vs(ctx.Base, base, d, pair)
		t.Rows = append(t.Rows, Row{Label: name, Cells: []float64{ipc, ctx.runDefault(d, pair).L1MissRate}})
	}
	t.Notes = append(t.Notes,
		"partition blocks align with cluster boundaries, so the clustered design confines the streamer's pollution")
	return t
}

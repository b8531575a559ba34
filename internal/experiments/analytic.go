package experiments

import (
	"fmt"
	"math"

	"dcl1sim/internal/analytic"
	"dcl1sim/internal/stats"
	"dcl1sim/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "ext-analytic",
		Title: "Extension: Che-approximation model vs cycle-level simulation",
		Paper: "Not in the paper; validates the simulator against a closed-form LRU model",
		Run:   runExtAnalytic,
	})
}

func runExtAnalytic(ctx *Context) *Table {
	t := &Table{
		ID:      "ext-analytic",
		Title:   "Predicted vs simulated baseline miss/replication",
		Columns: []string{"sim miss", "model miss", "sim repl", "model repl"},
	}
	m := analytic.Machine{
		Cores:   ctx.Base.Cores,
		L1Lines: ctx.Base.L1KB * 1024 / 128,
	}
	var missErr, replErr []float64
	for _, app := range workload.Sensitive() {
		sim := ctx.runDefault(ctx.design("Baseline"), app)
		pred := analytic.PredictBaseline(app, m)
		t.Rows = append(t.Rows, Row{Label: app.Name, Cells: []float64{
			sim.L1MissRate, pred.MissRate, sim.ReplicationRatio, pred.ReplicationRatio,
		}})
		missErr = append(missErr, math.Abs(sim.L1MissRate-pred.MissRate))
		replErr = append(replErr, math.Abs(sim.ReplicationRatio-pred.ReplicationRatio))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"mean |error|: miss %.3f, replication %.3f (Che's approximation ignores queueing-induced reuse-distance shifts)",
		stats.Mean(missErr), stats.Mean(replErr)))
	return t
}

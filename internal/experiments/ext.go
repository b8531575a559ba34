package experiments

// Extension experiments: not artifacts of the paper, but studies of the
// extension hooks the paper's related-work section motivates (per-DC-L1
// capacity-management techniques compose with the decoupled organization).

func init() {
	register(Experiment{
		ID:    "ext-prefetch",
		Title: "Extension: sequential prefetching inside the DC-L1 nodes",
		Paper: "Not in the paper; Section IX notes per-L1 management techniques compose with DC-L1s",
		Run:   runExtPrefetch,
	})
}

func runExtPrefetch(ctx *Context) *Table {
	t := &Table{
		ID:      "ext-prefetch",
		Title:   "Next-line prefetch in Sh40+C10+Boost DC-L1s (streaming apps)",
		Columns: []string{"IPC ratio", "miss ratio"},
	}
	plain, pf := ctx.design("Sh40+C10+Boost"), ctx.design("Sh40+C10+Boost+PF2")
	// The streaming-heavy apps, where a next-line prefetcher has something
	// to do.
	for _, app := range appsNamed("C-BLK", "S-Scan", "R-SRAD", "C-BFS") {
		ipc, miss := ctx.vs(ctx.Base, plain, pf, app)
		t.Rows = append(t.Rows, Row{Label: app.Name, Cells: []float64{ipc, miss}})
	}
	t.Notes = append(t.Notes,
		"prefetches stride by the home modulus so fetched lines stay home-aligned (Section V-A mapping)",
		"expected shape: miss rates drop but IPC stays flat or dips — these streaming apps are DRAM-bandwidth-bound, so prefetch traffic competes with demand fetches for the same channels")
	return t
}

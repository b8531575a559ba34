package experiments

func init() {
	register(Experiment{
		ID:    "ext-writeback",
		Title: "Extension: write-back DC-L1s vs the paper's write-evict policy",
		Paper: "Not in the paper (Section VII fixes write-evict); ablates that policy choice",
		Run:   runExtWriteback,
	})
}

// runExtWriteback compares the paper's write-evict + no-write-allocate
// DC-L1 policy against write-back + write-allocate under the final design,
// on the most write-heavy applications. Write-evict throws away a line on
// every write hit, so write-heavy working sets keep refetching; write-back
// retains them at the cost of dirty-victim traffic and L1/L2 incoherence
// windows the paper's GPUs avoid by construction.
func runExtWriteback(ctx *Context) *Table {
	t := &Table{
		ID:      "ext-writeback",
		Title:   "Write-back DC-L1 vs write-evict (IPC and miss ratios)",
		Columns: []string{"IPC ratio", "miss ratio"},
	}
	we, wb := ctx.design("Sh40+C10+Boost"), ctx.design("Sh40+C10+Boost+WB")
	for _, app := range appsNamed("S-Scan", "C-BLK", "R-SRAD", "T-AlexNet", "C-BFS") {
		ipc, miss := ctx.vs(ctx.Base, we, wb, app)
		t.Rows = append(t.Rows, Row{Label: app.Name, Cells: []float64{ipc, miss}})
	}
	t.Notes = append(t.Notes,
		"ratios are write-back relative to the paper's write-evict under Sh40+C10+Boost",
		"expected shape: write-heavy apps with reuse keep their lines (miss ratio < 1); pure streamers see little change")
	return t
}

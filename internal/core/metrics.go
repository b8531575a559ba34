package core

import "dcl1sim/internal/metrics"

// RegisterMetrics registers the core's series under its name in the core
// clock domain. The closures capture the Stats struct's address, which is
// stable across the warmup stat reset (the reset assigns a zero value in
// place), so registration at build time stays valid for the whole run.
func (c *Core) RegisterMetrics(r *metrics.Registry) {
	comp, s := c.P.Name, &c.Stat
	r.Counter(comp, "core", "core_cycles_total",
		"core clock cycles executed", func() int64 { return s.Cycles })
	r.Counter(comp, "core", "core_instructions_total",
		"wavefront instructions issued", func() int64 { return s.Issued })
	r.Counter(comp, "core", "core_mem_instructions_total",
		"memory instructions issued", func() int64 { return s.MemIssued })
	r.Counter(comp, "core", "core_transactions_total",
		"coalesced memory transactions created", func() int64 { return s.Transactions })
	r.Counter(comp, "core", "core_stall_no_ready_total",
		"cycles with no issuable wavefront", func() int64 { return s.StallNoReady })
	r.Counter(comp, "core", "core_throttled_total",
		"awake cycles the power governor withheld issue", func() int64 { return s.Throttled })
	r.Gauge(comp, "core", "core_throttle_level",
		"governor duty-cycle level (eighths withheld)", func() float64 { return float64(c.throttle) })
	r.Histogram(comp, "core", "core_load_rtt_cycles",
		"load round-trip latency in core cycles", &s.RTT)
}

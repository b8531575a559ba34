package cache

import "dcl1sim/internal/metrics"

// RegisterMetrics registers the controller's series under its name, in its
// domain, with family names that start with its level (Params.Family).
func (c *Ctrl) RegisterMetrics(r *metrics.Registry) {
	comp, domain, prefix := c.P.Name, c.P.Domain, c.P.Family
	s := &c.Stat
	r.Counter(comp, domain, prefix+"_loads_total",
		"load lookups", func() int64 { return s.Loads })
	r.Counter(comp, domain, prefix+"_load_hits_total",
		"load hits", func() int64 { return s.LoadHits })
	r.Counter(comp, domain, prefix+"_load_misses_total",
		"load misses", func() int64 { return s.LoadMisses })
	r.Counter(comp, domain, prefix+"_stores_total",
		"store lookups", func() int64 { return s.Stores })
	r.Counter(comp, domain, prefix+"_accesses_total",
		"array accesses (loads + stores)", func() int64 { return s.Accesses })
	r.Counter(comp, domain, prefix+"_busy_cycles_total",
		"cycles with at least one array access", func() int64 { return s.BusyCycles })
	r.Counter(comp, domain, prefix+"_mshr_merges_total",
		"misses merged into an in-flight MSHR", func() int64 { return s.MSHRMerges })
	r.Counter(comp, domain, prefix+"_mshr_stall_cycles_total",
		"cycles the head request stalled for an MSHR", func() int64 { return s.MSHRStalls })
	r.Counter(comp, domain, prefix+"_evictions_total",
		"line evictions", func() int64 { return s.Evictions })
	r.Counter(comp, domain, prefix+"_writebacks_total",
		"dirty writebacks issued", func() int64 { return s.Writebacks })
	r.Counter(comp, domain, prefix+"_replicated_misses_total",
		"load misses with the line resident in a peer cache", func() int64 { return s.ReplicatedMisses })
	r.Counter(comp, domain, prefix+"_prefetches_total",
		"sequential prefetches issued", func() int64 { return s.Prefetches })
	r.Gauge(comp, domain, prefix+"_mshr_occupancy",
		"allocated MSHR entries", func() float64 { return float64(c.MSHRInUse()) })
}

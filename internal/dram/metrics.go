package dram

import "dcl1sim/internal/metrics"

// RegisterMetrics registers the channel's series under its name in the
// memory clock domain.
func (c *Channel) RegisterMetrics(r *metrics.Registry) {
	comp, domain, s := c.P.Name, "mem", &c.Stat
	r.Counter(comp, domain, "dram_reads_total",
		"read bursts serviced", func() int64 { return s.Reads })
	r.Counter(comp, domain, "dram_writes_total",
		"write bursts serviced", func() int64 { return s.Writes })
	r.Counter(comp, domain, "dram_row_hits_total",
		"row-buffer hits", func() int64 { return s.RowHits })
	r.Counter(comp, domain, "dram_row_misses_total",
		"row-buffer misses", func() int64 { return s.RowMisses })
	r.Counter(comp, domain, "dram_busy_burst_cycles_total",
		"cycles the data bus was occupied", func() int64 { return s.BusyBurst })
	r.Gauge(comp, domain, "dram_row_hit_rate",
		"row-buffer hit fraction", func() float64 { return s.RowHitRate() })
	r.Gauge(comp, domain, "dram_bus_utilization",
		"data-bus busy fraction", func() float64 { return s.BusUtilization() })
}

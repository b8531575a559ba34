package noc

import "dcl1sim/internal/metrics"

// RegisterMetrics registers the crossbar's series under its configured name.
// prefix names the network level ("noc1", "noc2") so reply-link utilization
// can be aggregated per network. reply marks reply-direction crossbars,
// which additionally expose the paper's max-output-link utilization gauge.
func (x *Crossbar) RegisterMetrics(r *metrics.Registry, domain, prefix string, reply bool) {
	comp := x.P.Name
	s := &x.Stat
	r.Counter(comp, domain, prefix+"_packets_total",
		"packets delivered", func() int64 { return s.PacketsMoved })
	r.Counter(comp, domain, prefix+"_flits_total",
		"flits moved", func() int64 { return s.FlitsMoved })
	r.Counter(comp, domain, prefix+"_stall_no_room_total",
		"grants blocked by a full output stage", func() int64 { return s.StallNoRoom })
	if reply {
		r.Gauge(comp, domain, prefix+"_reply_link_util_max",
			"maximum output-link utilization (flits per cycle)",
			func() float64 { return s.MaxOutUtilization() })
	}
}

// RegisterMetrics registers the mesh's series under comp. The mesh stands in
// for NoC#2 in the MeshBase design, so its flit hops count under the noc2
// flit family.
func (m *Mesh) RegisterMetrics(r *metrics.Registry, comp, domain, prefix string) {
	s := &m.Stat
	r.Counter(comp, domain, prefix+"_packets_total",
		"packets delivered", func() int64 { return s.Packets })
	r.Counter(comp, domain, prefix+"_flits_total",
		"flit-hops traversed", func() int64 { return s.FlitHops })
	r.Counter(comp, domain, prefix+"_stall_no_room_total",
		"grants blocked by a full downstream buffer", func() int64 { return s.StallFull })
}

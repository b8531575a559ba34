package noc

import "dcl1sim/internal/metrics"

// RegisterMetrics registers the crossbar's series under its name, with its
// network as domain and family prefix, so reply-link utilization can be
// aggregated per network. A reply-direction crossbar additionally exposes the
// paper's max-output-link utilization gauge.
func (x *Crossbar) RegisterMetrics(r *metrics.Registry) {
	comp, net, s := x.P.Name, x.P.Net, &x.Stat
	r.Counter(comp, net, net+"_packets_total",
		"packets delivered", func() int64 { return s.PacketsMoved })
	r.Counter(comp, net, net+"_flits_total",
		"flits moved", func() int64 { return s.FlitsMoved })
	r.Counter(comp, net, net+"_stall_no_room_total",
		"grants blocked by a full output stage", func() int64 { return s.StallNoRoom })
	if x.P.Reply {
		r.Gauge(comp, net, net+"_reply_link_util_max",
			"maximum output-link utilization (flits per cycle)",
			func() float64 { return s.MaxOutUtilization() })
	}
}

// RegisterMetrics registers the mesh's series under its name, with its
// network as domain and family prefix. The mesh stands in for NoC#2 in the
// MeshBase design, so its flit hops count under the noc2 flit family.
func (m *Mesh) RegisterMetrics(r *metrics.Registry) {
	comp, net, s := m.P.Name, m.P.Net, &m.Stat
	r.Counter(comp, net, net+"_packets_total",
		"packets delivered", func() int64 { return s.Packets })
	r.Counter(comp, net, net+"_flits_total",
		"flit-hops traversed", func() int64 { return s.FlitHops })
	r.Counter(comp, net, net+"_stall_no_room_total",
		"grants blocked by a full downstream buffer", func() int64 { return s.StallFull })
}

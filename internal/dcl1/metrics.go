package dcl1

import "dcl1sim/internal/metrics"

// RegisterMetrics registers the node's cache series plus the node-level
// bypass counters, all under the cache's name and domain.
func (n *Node) RegisterMetrics(r *metrics.Registry) {
	n.Ctrl.RegisterMetrics(r)
	comp, domain := n.Ctrl.P.Name, n.Ctrl.P.Domain
	s := &n.Stat
	r.Counter(comp, domain, "l1_bypass_requests_total",
		"non-L1/atomic requests moved Q1->Q3 around the cache", func() int64 { return s.BypassRequests })
	r.Counter(comp, domain, "l1_bypass_replies_total",
		"non-L1/atomic replies moved Q4->Q2 around the cache", func() int64 { return s.BypassReplies })
}

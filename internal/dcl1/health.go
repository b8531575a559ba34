package dcl1

import "dcl1sim/internal/health"

// Pending returns buffered work in the node's bridge queues plus the cache
// controller (drain and health checks).
func (n *Node) Pending() int {
	return n.Q1.Len() + n.Q2.Len() + n.Q3.Len() + n.Q4.Len() + n.Ctrl.Pending()
}

// DumpHealth snapshots the node — bridge queues, bypass counters, and the
// embedded cache controller — for a diagnostic dump.
func (n *Node) DumpHealth() (health.ComponentDump, bool) {
	d, interesting := n.Ctrl.DumpHealth()
	d.Fields = append(d.Fields,
		health.F("bridge", "Q1 %d/%d, Q2 %d/%d, Q3 %d/%d, Q4 %d/%d",
			n.Q1.Len(), n.Q1.Cap(), n.Q2.Len(), n.Q2.Cap(),
			n.Q3.Len(), n.Q3.Cap(), n.Q4.Len(), n.Q4.Cap()),
		health.F("bypass", "requests %d, replies %d",
			n.Stat.BypassRequests, n.Stat.BypassReplies),
	)
	return d, interesting || n.Pending() > 0
}

package dcl1

import (
	"dcl1sim/internal/chaos"
	"dcl1sim/internal/health"
)

// Pending returns buffered work in the node's bridge queues plus the cache
// controller (drain and health checks).
func (n *Node) Pending() int {
	return n.Q1.Len() + n.Q2.Len() + n.Q3.Len() + n.Q4.Len() + n.Ctrl.Pending()
}

// Progress is the node's term of its clock's watchdog probe: its controller's
// array accesses plus the requests and replies it moved past the cache.
func (n *Node) Progress() int64 {
	return n.Ctrl.Progress() + n.Stat.BypassRequests + n.Stat.BypassReplies
}

// ResetStats zeroes the node's statistics, its controller's included, at the
// warm-up boundary.
func (n *Node) ResetStats() {
	n.Ctrl.ResetStats()
	n.Stat = Stats{}
}

// ArmChaos takes the injector of the node's cache controller from the
// machine's factory.
func (n *Node) ArmChaos(arm func(chaos.Kind, string) *chaos.Injector) {
	n.Ctrl.Chaos = arm(chaos.KindL1, n.Ctrl.P.Name)
}

// CheckInvariants audits the node's cache controller. The bridge queues Q1-Q4
// are not audited here: the machine watches each of them (head age and
// accounting), so a broken queue is reported once.
func (n *Node) CheckInvariants() []health.Violation { return n.Ctrl.CheckInvariants() }

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

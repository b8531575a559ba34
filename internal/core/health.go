package core

import (
	"fmt"

	"dcl1sim/internal/chaos"
	"dcl1sim/internal/health"
	"dcl1sim/internal/sim"
)

// CheckInvariants implements health.Checker: every blocked wavefront must
// have a reason to be blocked (a fence with outstanding transactions, or the
// outstanding cap reached), outstanding counts must be non-negative, and the
// core queues must conserve accesses. A violation here means replies were
// lost or double-counted somewhere below the core. The derived scheduling
// state (pending and issuable sets, pendCount, pendZero) must agree with the
// wavefront flags it summarises: a stale member would silently change which
// wavefronts expand or issue.
func (c *Core) CheckInvariants() []health.Violation {
	var out []health.Violation
	name := c.P.Name
	pend, zero := 0, 0
	for i := range c.waves {
		w := &c.waves[i]
		if w.pendActive {
			pend++
			if len(w.pendLines) == 0 {
				zero++
			}
		}
		if c.pending.has(w.id) != w.pendActive || c.issuable.has(w.id) == w.stalled() {
			out = append(out, health.Violation{
				Component: name, Rule: "stale-wave-set",
				Detail: fmt.Sprintf("wave %d: pending bit %t (pendActive %t), issuable bit %t (stalled %t)",
					w.id, c.pending.has(w.id), w.pendActive, c.issuable.has(w.id), w.stalled()),
			})
		}
		switch {
		case w.outstanding < 0:
			out = append(out, health.Violation{
				Component: name, Rule: "negative-outstanding",
				Detail: fmt.Sprintf("wave %d outstanding %d", w.id, w.outstanding),
			})
		case w.blocked && w.fence && w.outstanding == 0:
			out = append(out, health.Violation{
				Component: name, Rule: "fence-stuck", Warn: true,
				Detail: fmt.Sprintf("wave %d fence-blocked with zero outstanding transactions", w.id),
			})
		case w.blocked && !w.fence && w.outstanding < c.P.MaxOutstanding:
			out = append(out, health.Violation{
				Component: name, Rule: "block-stuck", Warn: true,
				Detail: fmt.Sprintf("wave %d blocked at %d outstanding, cap %d",
					w.id, w.outstanding, c.P.MaxOutstanding),
			})
		}
	}
	if pend != c.pendCount || zero != c.pendZero {
		out = append(out, health.Violation{
			Component: name, Rule: "pending-count",
			Detail: fmt.Sprintf("pendCount %d (zero-line %d), wavefronts expanding %d (zero-line %d)",
				c.pendCount, c.pendZero, pend, zero),
		})
	}
	out = append(out, sim.CheckQueue(name, "Out", c.Out)...)
	out = append(out, sim.CheckQueue(name, "In", c.In)...)
	out = append(out, sim.CheckQueue(name, "LSQ", c.lsq)...)
	return out
}

// Progress is the core's term of its clock's watchdog probe: wavefront
// instructions issued plus memory transactions created.
func (c *Core) Progress() int64 { return c.Stat.Issued + c.Stat.Transactions }

// Pending counts the wavefronts that have not finished their programs: the
// core has work while any is left.
func (c *Core) Pending() int {
	n := 0
	for i := range c.waves {
		if !c.waves[i].done {
			n++
		}
	}
	return n
}

// ResetStats zeroes the core's statistics at the warm-up boundary.
func (c *Core) ResetStats() { c.Stat = Stats{} }

// ArmChaos takes the core's injector (issue stalls) from the machine's
// factory.
func (c *Core) ArmChaos(arm func(chaos.Kind, string) *chaos.Injector) {
	c.Chaos = arm(chaos.KindCore, c.P.Name)
}

// DumpHealth snapshots the core for a diagnostic dump; interesting while any
// wavefront is unfinished or transactions are in flight.
func (c *Core) DumpHealth() (health.ComponentDump, bool) {
	done, blocked, fenced, pending := 0, 0, 0, 0
	outstanding := 0
	for i := range c.waves {
		w := &c.waves[i]
		if w.done {
			done++
		}
		if w.blocked {
			blocked++
		}
		if w.fence {
			fenced++
		}
		if w.pendActive {
			pending++
		}
		outstanding += w.outstanding
	}
	d := health.ComponentDump{
		Name: c.P.Name,
		Fields: []health.Field{
			health.F("waves", "%d total: %d done, %d blocked (%d fenced), %d expanding",
				len(c.waves), done, blocked, fenced, pending),
			health.F("outstanding", "%d transactions", outstanding),
			health.F("lsq", "%d/%d", c.lsq.Len(), c.lsq.Cap()),
			health.F("out", "%d/%d", c.Out.Len(), c.Out.Cap()),
			health.F("in", "%d/%d", c.In.Len(), c.In.Cap()),
			health.F("stats", "issued %d, transactions %d, stallNoReady %d",
				c.Stat.Issued, c.Stat.Transactions, c.Stat.StallNoReady),
		},
	}
	interesting := !c.Done() || outstanding > 0 || c.lsq.Len() > 0 ||
		c.Out.Len() > 0 || c.In.Len() > 0
	return d, interesting
}

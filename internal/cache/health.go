package cache

import (
	"fmt"

	"dcl1sim/internal/chaos"
	"dcl1sim/internal/health"
	"dcl1sim/internal/sim"
)

// DefaultMSHRAgeBound is the invariant-audit bound on how long an MSHR entry
// may stay pending. Fills normally return within a few thousand cycles even
// under heavy congestion; an entry this old means the fill was lost.
const DefaultMSHRAgeBound sim.Cycle = 25_000

// CheckInvariants implements health.Checker: MSHR occupancy within capacity,
// merge counts within MaxMerge, no entry pending longer than the age bound,
// push/pop conservation on the four controller queues, and — while the
// stalled-load memo is live — that its line really is absent from the array
// and has no MSHR entry, or one with a full merge list, as memoised.
func (c *Ctrl) CheckInvariants() []health.Violation {
	var out []health.Violation
	name := c.P.Name
	if absent, full := c.missKnown(c.miss.line); absent || full {
		line, e := c.miss.line, c.mshr.get(c.miss.line)
		if c.Arr.Contains(line) || (e != nil) != full || (full && len(e.waiters) < c.P.MaxMerge) {
			out = append(out, health.Violation{
				Component: name, Rule: "stale-miss-memo",
				Detail: fmt.Sprintf("line %#x memoised absent (merge list full: %t) but resident %t, MSHR entry %t",
					line, full, c.Arr.Contains(line), e != nil),
			})
		}
	}
	if c.mshr.len() > c.P.MSHRs {
		out = append(out, health.Violation{
			Component: name, Rule: "mshr-occupancy",
			Detail: fmt.Sprintf("%d entries allocated, capacity %d", c.mshr.len(), c.P.MSHRs),
		})
	}
	overMerged, overAged := 0, 0
	var oldest sim.Cycle = -1
	c.mshr.forEach(func(_ uint64, e *mshrEntry) {
		if len(e.waiters) > c.P.MaxMerge {
			overMerged++
		}
		if age := c.lastTick - e.allocAt; age > DefaultMSHRAgeBound {
			overAged++
			if age > oldest {
				oldest = age
			}
		}
	})
	if overMerged > 0 {
		out = append(out, health.Violation{
			Component: name, Rule: "mshr-overmerge",
			Detail: fmt.Sprintf("%d entries exceed MaxMerge %d", overMerged, c.P.MaxMerge),
		})
	}
	if overAged > 0 {
		out = append(out, health.Violation{
			Component: name, Rule: "mshr-entry-stuck", Warn: true,
			Detail: fmt.Sprintf("%d entries pending > %d cycles (oldest %d)",
				overAged, DefaultMSHRAgeBound, oldest),
		})
	}
	for _, q := range []struct {
		label string
		q     sim.QueueState
	}{
		{"In", c.In}, {"Out", c.Out}, {"MissOut", c.MissOut}, {"FillIn", c.FillIn},
	} {
		out = append(out, sim.CheckQueue(name, q.label, q.q)...)
	}
	return out
}

// Pending returns buffered plus in-flight work inside the controller (queues,
// reply pipe, allocated MSHRs).
func (c *Ctrl) Pending() int {
	return c.In.Len() + c.Out.Len() + c.MissOut.Len() + c.FillIn.Len() +
		c.pipe.Len() + c.mshr.len()
}

// Progress is the controller's term of its clock's watchdog probe: its array
// accesses (an L1/DC-L1 node adds the accesses it moved past the cache).
func (c *Ctrl) Progress() int64 { return c.Stat.Accesses }

// ResetStats zeroes the controller's statistics at the warm-up boundary.
func (c *Ctrl) ResetStats() { c.Stat = Stats{} }

// ArmChaos takes the controller's injector (fill stalls, MSHR pinches,
// corruption) from the machine's factory. A controller armed on its own is an
// L2 slice: an L1's controller is armed by its node (dcl1.Node).
func (c *Ctrl) ArmChaos(arm func(chaos.Kind, string) *chaos.Injector) {
	c.Chaos = arm(chaos.KindL2, c.P.Name)
}

// DumpHealth snapshots the controller for a diagnostic dump. The bool result
// marks the snapshot interesting (any pending work to explain).
func (c *Ctrl) DumpHealth() (health.ComponentDump, bool) {
	var oldest sim.Cycle
	c.mshr.forEach(func(_ uint64, e *mshrEntry) {
		if age := c.lastTick - e.allocAt; age > oldest {
			oldest = age
		}
	})
	d := health.ComponentDump{
		Name: c.P.Name,
		Fields: []health.Field{
			health.F("cycle", "%d", c.lastTick),
			health.F("in", "%d/%d (pushes %d, pops %d)", c.In.Len(), c.In.Cap(), c.In.PushCount, c.In.PopCount),
			health.F("out", "%d/%d (pushes %d, pops %d)", c.Out.Len(), c.Out.Cap(), c.Out.PushCount, c.Out.PopCount),
			health.F("missOut", "%d/%d (pushes %d, pops %d)", c.MissOut.Len(), c.MissOut.Cap(), c.MissOut.PushCount, c.MissOut.PopCount),
			health.F("fillIn", "%d/%d (pushes %d, pops %d)", c.FillIn.Len(), c.FillIn.Cap(), c.FillIn.PushCount, c.FillIn.PopCount),
			health.F("mshr", "%d/%d in use, oldest age %d", c.mshr.len(), c.P.MSHRs, oldest),
			health.F("replyPipe", "%d in flight", c.pipe.Len()),
			health.F("stats", "loads %d, misses %d, stores %d, mshrStalls %d",
				c.Stat.Loads, c.Stat.LoadMisses, c.Stat.Stores, c.Stat.MSHRStalls),
		},
	}
	return d, c.Pending() > 0
}

package dram

import (
	"fmt"

	"dcl1sim/internal/chaos"
	"dcl1sim/internal/health"
	"dcl1sim/internal/sim"
)

// DefaultStuckAccessAge is the invariant-audit bound on how long a completed
// DRAM access may wait for space in the reply queue.
const DefaultStuckAccessAge sim.Cycle = 10_000

// Progress is the channel's term of its clock's watchdog probe: the reads and
// writes it served.
func (c *Channel) Progress() int64 { return c.Stat.Reads + c.Stat.Writes }

// ResetStats zeroes the channel's statistics at the warm-up boundary.
func (c *Channel) ResetStats() { c.Stat = Stats{} }

// ArmChaos takes the channel's injector (timing jitter, refresh storms) from
// the machine's factory.
func (c *Channel) ArmChaos(arm func(chaos.Kind, string) *chaos.Injector) {
	c.Chaos = arm(chaos.KindDram, c.P.Name)
}

// CheckInvariants implements health.Checker: a finished access that cannot
// leave (Out full for a long time) is stuck, and the request/reply queues
// must conserve accesses. The shift/mask bank map must agree with the
// address map's division form on every queued request.
func (c *Channel) CheckInvariants() []health.Violation {
	var out []health.Violation
	for i := 0; i < c.In.Len(); i++ {
		line := c.In.At(i).Line
		bank, row := c.locate(line)
		if wb, wr := c.P.Map.Bank(line)%c.P.Banks, c.P.Map.Row(line); bank != wb || row != wr {
			out = append(out, health.Violation{
				Component: c.P.Name, Rule: "bank-map",
				Detail: fmt.Sprintf("line %#x located at bank %d row %d, address map says bank %d row %d",
					line, bank, row, wb, wr),
			})
		}
	}
	if at, ok := c.inflight.NextReadyAt(); ok {
		if age := c.lastTick - at; age > DefaultStuckAccessAge {
			out = append(out, health.Violation{
				Component: c.P.Name, Rule: "stuck-access", Warn: true,
				Detail: fmt.Sprintf("completed access waiting %d cycles for reply-queue space", age),
			})
		}
	}
	out = append(out, sim.CheckQueue(c.P.Name, "In", c.In)...)
	out = append(out, sim.CheckQueue(c.P.Name, "Out", c.Out)...)
	return out
}

// DumpHealth snapshots the channel for a diagnostic dump.
func (c *Channel) DumpHealth() (health.ComponentDump, bool) {
	open := 0
	for i := range c.banks {
		if c.banks[i].rowOpen {
			open++
		}
	}
	d := health.ComponentDump{
		Name: c.P.Name,
		Fields: []health.Field{
			health.F("cycle", "%d", c.lastTick),
			health.F("in", "%d/%d", c.In.Len(), c.In.Cap()),
			health.F("out", "%d/%d", c.Out.Len(), c.Out.Cap()),
			health.F("inFlight", "%d", c.inflight.Len()),
			health.F("banks", "%d open rows of %d banks, bus busy until %d", open, len(c.banks), c.busBusy),
			health.F("stats", "reads %d, writes %d, rowHitRate %.2f",
				c.Stat.Reads, c.Stat.Writes, c.Stat.RowHitRate()),
		},
	}
	return d, c.Pending() > 0 || c.Out.Len() > 0
}

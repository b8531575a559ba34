package noc

import (
	"fmt"

	"dcl1sim/internal/chaos"
	"dcl1sim/internal/health"
	"dcl1sim/internal/mem"
	"dcl1sim/internal/sim"
)

// DefaultStuckFlitAge is the invariant-audit bound on how long a matured
// traversal may wait for a full output stage or endpoint before it is
// reported as a stuck flit.
const DefaultStuckFlitAge sim.Cycle = 10_000

// Progress is the crossbar's term of its clock's watchdog probe: the flits it
// moved.
func (x *Crossbar) Progress() int64 { return x.Stat.FlitsMoved }

// ResetStats zeroes the crossbar's statistics at the warm-up boundary, keeping
// the per-port slices at their sizes.
func (x *Crossbar) ResetStats() {
	x.Stat = Stats{InFlits: make([]int64, x.P.Ins), OutFlits: make([]int64, x.P.Outs)}
}

// ArmChaos takes the crossbar's injector (grant delays, output jams) from the
// machine's factory. The mesh has none: it is not perturbed.
func (x *Crossbar) ArmChaos(arm func(chaos.Kind, string) *chaos.Injector) {
	x.Chaos = arm(chaos.KindNoC, x.P.Name)
}

// CheckInvariants implements health.Checker for the crossbar: a traversal
// that matured long ago but cannot leave (full staging queue or a rejecting
// endpoint) is a stuck flit; the staging queues must conserve packets, and
// the VOQ books must balance (checkVOQs).
func (x *Crossbar) CheckInvariants() []health.Violation {
	out := x.checkVOQs()
	if at, ok := x.inFlight.NextReadyAt(); ok {
		if age := x.lastTick - at; age > DefaultStuckFlitAge {
			p, _ := x.inFlight.PeekReady(x.lastTick)
			detail := fmt.Sprintf("traversal matured %d cycles ago", age)
			if p != nil {
				detail = fmt.Sprintf("traversal to output %d matured %d cycles ago (%d flits)",
					p.Dst, age, p.Flits)
			}
			out = append(out, health.Violation{
				Component: x.P.Name, Rule: "stuck-flit", Warn: true, Detail: detail,
			})
		}
	}
	for o, q := range x.staged {
		// A passing audit allocates nothing: the queue is named only for a report.
		if sim.CheckQueue(x.P.Name, "", q) != nil {
			out = append(out, sim.CheckQueue(x.P.Name, fmt.Sprintf("staged[%d]", o), q)...)
		}
	}
	return out
}

// checkVOQs audits the VOQ conservation rules, all fatal:
//
//   - ingress-credit: every pair's credit equals its VOQ length plus its
//     unpublished injections plus its grants whose credit has not returned
//     (ingress.checkCredits, the rule every network keeps);
//   - voq-books: voqPerOut, voqCount and the voqBits/outPending bitmaps agree
//     with the lengths.
func (x *Crossbar) checkVOQs() []health.Violation {
	out := x.checkCredits(x.P.Name,
		func(p *mem.Packet) int { return x.pair(p.Src, p.Dst) },
		func(k int) int32 { return x.voqLen[k] },
		func(k int) string { return fmt.Sprintf("pair (in %d, out %d)", k%x.P.Ins, k/x.P.Ins) })
	bad := func(format string, args ...any) {
		out = append(out, health.Violation{Component: x.P.Name, Rule: "voq-books", Detail: fmt.Sprintf(format, args...)})
	}
	total := 0
	for o := 0; o < x.P.Outs; o++ {
		perOut := 0
		for in := 0; in < x.P.Ins; in++ {
			n := x.voqLen[x.pair(in, o)]
			if set := x.voqBits[o][in>>6]&(1<<uint(in&63)) != 0; set != (n > 0) {
				bad("pair (in %d, out %d): VOQ %d, bitmap bit %v", in, o, n, set)
			}
			perOut += int(n)
		}
		if int(x.voqPerOut[o]) != perOut {
			bad("output %d: voqPerOut %d, VOQs hold %d", o, x.voqPerOut[o], perOut)
		}
		if set := x.outPending[o>>6]&(1<<uint(o&63)) != 0; set != (perOut > 0) {
			bad("output %d: %d waiting, outPending bit %v", o, perOut, set)
		}
		total += perOut
	}
	if x.voqCount != total {
		bad("voqCount %d, VOQs hold %d", x.voqCount, total)
	}
	return out
}

// DumpHealth snapshots the crossbar for a diagnostic dump.
func (x *Crossbar) DumpHealth() (health.ComponentDump, bool) {
	voqOccupied := 0
	for _, n := range x.voqLen {
		if n > 0 {
			voqOccupied++
		}
	}
	voqPackets := x.voqCount
	d := health.ComponentDump{
		Name: x.P.Name,
		Fields: []health.Field{
			health.F("cycle", "%d", x.lastTick),
			health.F("shape", "%dx%d, %dB links", x.P.Ins, x.P.Outs, x.P.LinkBytes),
			health.F("voqs", "%d occupied, %d packets", voqOccupied, voqPackets),
			health.F("inFlight", "%d traversals", x.inFlight.Len()),
			health.F("staged", "%d packets", x.stagedCount),
			health.F("stats", "packets %d, flits %d, stallNoRoom %d",
				x.Stat.PacketsMoved, x.Stat.FlitsMoved, x.Stat.StallNoRoom),
		},
	}
	return d, x.Pending() > 0
}

// Progress is the mesh's term of its clock's watchdog probe: the flit-hops
// it moved.
func (m *Mesh) Progress() int64 { return m.Stat.FlitHops }

// ResetStats zeroes the mesh's statistics at the warm-up boundary.
func (m *Mesh) ResetStats() { m.Stat = MeshStats{} }

// CheckInvariants implements health.Checker for the mesh: a transit that
// first matured long ago but is still retrying (full downstream buffer or
// rejecting endpoint) is a stuck flit. Two rules are fatal: ingress-credit
// (each node's credit equals its local input buffer plus its unpublished
// injections plus its grants whose credit has not returned) and mesh-held
// (held equals the packets in the input buffers plus the transits).
func (m *Mesh) CheckInvariants() []health.Violation {
	out := m.checkCredits(m.P.Name,
		func(p *mem.Packet) int { return p.Src },
		func(n int) int32 { return int32(m.routers[n].in[dirL].Len()) },
		func(n int) string { return fmt.Sprintf("node %d", n) })
	stuck, inside := 0, 0
	var oldest sim.Cycle
	for n := range m.routers {
		r := &m.routers[n]
		for d := 0; d < numPorts; d++ {
			inside += r.in[d].Len()
		}
		inside += r.inflight.Len()
		if tr, ok := r.inflight.PeekReady(m.lastTick); ok {
			if age := m.lastTick - tr.firstReady; age > DefaultStuckFlitAge {
				stuck++
				if age > oldest {
					oldest = age
				}
			}
		}
	}
	if stuck > 0 {
		out = append(out, health.Violation{
			Component: m.P.Name, Rule: "stuck-flit", Warn: true,
			Detail: fmt.Sprintf("%d routers with transits matured > %d cycles (oldest %d)",
				stuck, DefaultStuckFlitAge, oldest),
		})
	}
	if m.held != inside {
		out = append(out, health.Violation{Component: m.P.Name, Rule: "mesh-held",
			Detail: fmt.Sprintf("held %d, input buffers and transits hold %d", m.held, inside)})
	}
	return out
}

// DumpHealth snapshots the mesh for a diagnostic dump.
func (m *Mesh) DumpHealth() (health.ComponentDump, bool) {
	buffered, inflight := 0, 0
	for n := range m.routers {
		r := &m.routers[n]
		for d := 0; d < numPorts; d++ {
			buffered += r.in[d].Len()
		}
		inflight += r.inflight.Len()
	}
	d := health.ComponentDump{
		Name: m.P.Name,
		Fields: []health.Field{
			health.F("cycle", "%d", m.lastTick),
			health.F("shape", "%dx%d, %dB links", m.P.W, m.P.H, m.P.LinkBytes),
			health.F("buffered", "%d packets", buffered),
			health.F("inFlight", "%d transits", inflight),
			health.F("stats", "packets %d, flitHops %d, stallFull %d",
				m.Stat.Packets, m.Stat.FlitHops, m.Stat.StallFull),
		},
	}
	return d, m.Pending() > 0
}

package noc

import (
	"fmt"

	"dcl1sim/internal/health"
	"dcl1sim/internal/sim"
)

// DefaultStuckFlitAge is the invariant-audit bound on how long a matured
// traversal may wait for a full output stage or endpoint before it is
// reported as a stuck flit.
const DefaultStuckFlitAge sim.Cycle = 10_000

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
		out = append(out, sim.CheckQueue(x.P.Name, fmt.Sprintf("staged[%d]", o), q)...)
	}
	return out
}

// checkVOQs audits the VOQ conservation rules, all fatal:
//
//   - voq-credit: every pair's credit equals its VOQ length plus its
//     unpublished injections plus its grants whose credit has not returned;
//   - voq-books: voqPerOut, voqCount and the voqBits/outPending bitmaps agree
//     with the lengths.
func (x *Crossbar) checkVOQs() []health.Violation {
	var out []health.Violation
	bad := func(rule, format string, args ...any) {
		out = append(out, health.Violation{Component: x.P.Name, Rule: rule, Detail: fmt.Sprintf(format, args...)})
	}
	held := make(map[int]int32, len(x.pending)+len(x.granted))
	for _, p := range x.pending {
		held[x.pair(p.Src, p.Dst)]++
	}
	for _, k := range x.granted {
		held[int(k)]++
	}
	total := 0
	for o := 0; o < x.P.Outs; o++ {
		perOut := 0
		for in := 0; in < x.P.Ins; in++ {
			k := x.pair(in, o)
			n := x.voqLen[k]
			if want := n + held[k]; x.credit[k] != want {
				bad("voq-credit", "pair (in %d, out %d): credit %d, VOQ %d + held %d", in, o, x.credit[k], n, held[k])
			}
			if set := x.voqBits[o][in>>6]&(1<<uint(in&63)) != 0; set != (n > 0) {
				bad("voq-books", "pair (in %d, out %d): VOQ %d, bitmap bit %v", in, o, n, set)
			}
			perOut += int(n)
		}
		if int(x.voqPerOut[o]) != perOut {
			bad("voq-books", "output %d: voqPerOut %d, VOQs hold %d", o, x.voqPerOut[o], perOut)
		}
		if set := x.outPending[o>>6]&(1<<uint(o&63)) != 0; set != (perOut > 0) {
			bad("voq-books", "output %d: %d waiting, outPending bit %v", o, perOut, set)
		}
		total += perOut
	}
	if x.voqCount != total {
		bad("voq-books", "voqCount %d, VOQs hold %d", x.voqCount, total)
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

// CheckInvariants implements health.Checker for the mesh: a transit that
// first matured long ago but is still retrying (full downstream buffer or
// rejecting endpoint) is a stuck flit.
func (m *Mesh) CheckInvariants() []health.Violation {
	var out []health.Violation
	stuck := 0
	var oldest sim.Cycle
	for n := range m.routers {
		r := &m.routers[n]
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

package gpu

import (
	"dcl1sim/internal/mem"
	"dcl1sim/internal/noc"
	"dcl1sim/internal/sim"
)

// The inter-module link of a machine with two or more modules (DESIGN.md
// §16): an NVLink-ish pair of Modules×Modules crossbars (request and reply
// directions) on their own 1 GHz LinkClk domain, flit-sliced at
// Design.LinkGBps bytes per link cycle with Design.LinkLat switch latency
// and the same credit-based injection as the on-chip NoCs. In the default
// partitioned address space every line has one home module's DRAM
// (mem.AddressMap.HomeModule); an L2 miss for a remote-homed line crosses
// the link, reads the home DRAM, and the fill crosses back. The private mode
// (Design.PrivateAS) replicates the address space per module and the link
// stays idle.

// wireLink builds the link stage — the last row of the stage table — and the
// feeds, hosted by the link crossbars, injecting each module's per-channel
// link ports into the link. It is hand-wired because every tap is a fan-in
// over a module's DRAM channels, not one port pair.
func (s *System) wireLink() {
	st := s.Topo.Stages[len(s.Topo.Stages)-1]
	s.Link = s.buildStage(st, "", &s.linkParts)
	req, rep := s.Link.Req[0], s.Link.Rep[0]

	// sinkPort delivers a link packet's access into the channel-indexed port
	// slice of its destination module, routing by the line's home geometry
	// (identical in every module).
	sinkPort := func(ports []*sim.Port[*mem.Access]) noc.Endpoint {
		amap := s.Mods[0].AMap
		return noc.EndpointFunc(func(p *mem.Packet) bool {
			ch := amap.Channel(amap.L2Slice(p.Acc.Line))
			if !ports[ch].Push(p.Acc) {
				return false
			}
			s.Pool.PutPacket(p)
			return true
		})
	}

	for i, mod := range s.Mods {
		amap := mod.AMap
		// Requests: remote-homed misses leave module i toward the home
		// module's DRAM. Whole lines matter on the memory side, so requests
		// carry full-store payloads like NoC#2 (reqFlits fullStore).
		req.Feeds.Add(netFeed(req, func(a *mem.Access) bool {
			return s.inject(req, a, i, amap.HomeModule(a.Line), reqFlits(a, st.FlitBytes, true))
		}, mod.linkMissOut...))
		req.SetEndpoint(i, sinkPort(mod.linkReqIn))
		// Fills: home DRAM data returns to the origin module. Full lines,
		// never trimmed (both ends are memory-side).
		rep.Feeds.Add(netFeed(rep, func(a *mem.Access) bool {
			return s.inject(rep, a, i, int(a.Module), replyFlits(a, st.FlitBytes, false))
		}, mod.linkRepOut...))
		rep.SetEndpoint(i, sinkPort(mod.linkFillIn))
		for ch := range mod.linkReqIn {
			mod.linkReqIn[ch].Attach(s.LinkClk)
			mod.linkFillIn[ch].Attach(s.LinkClk)
		}
	}

	s.linkParts.registerMetrics(s.Reg)
	s.Reg.Counter("chaos-link", "link", "chaos_faults_total",
		"fault occurrences on the inter-module link injectors",
		func() int64 { return fired(s.linkParts.injectors) })
}

package gpu

import (
	"fmt"

	"dcl1sim/internal/health"
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

// wireLink builds the inter-module crossbar pair and the LinkClk pumps
// moving traffic between each module's per-channel link ports and the link.
//
// LinkClk namespace: module i's pumps and the ports delivered to it use
// group i; the two crossbar hubs get Modules and Modules+1.
func (s *System) wireLink() {
	d := s.D
	n := len(s.Mods)
	mk := func(name string) *noc.Crossbar {
		return noc.New(noc.Params{
			Name: name, Ins: n, Outs: n,
			LinkBytes: d.LinkGBps, RouterLat: d.LinkLat,
		})
	}
	req := mk("link-req")
	rep := mk("link-rep")
	s.LinkReq, s.LinkRep = req, rep
	s.LinkClk.Register(req)
	s.LinkClk.Register(rep)
	req.AttachPorts(s.LinkClk)
	rep.AttachPorts(s.LinkClk)

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
		i, mod := i, mod
		amap := mod.AMap
		// Requests: remote-homed misses leave module i toward the home
		// module's DRAM. Whole lines matter on the memory side, so requests
		// carry full-store payloads like NoC#2 (reqFlits fullStore).
		s.LinkClk.Register(&multiPump{
			srcs: mod.linkMissOut,
			rate: pumpRate,
			try: func(a *mem.Access) bool {
				return s.inject(req, a, i, amap.HomeModule(a.Line), reqFlits(a, d.LinkGBps, true))
			},
			space: []sim.PortRef{req.InjectSpace(i)},
		})
		req.SetEndpoint(i, sinkPort(mod.linkReqIn))
		// Fills: home DRAM data returns to the origin module. Full lines,
		// never trimmed (both ends are memory-side).
		s.LinkClk.Register(&multiPump{
			srcs: mod.linkRepOut,
			rate: pumpRate,
			try: func(a *mem.Access) bool {
				return s.inject(rep, a, i, a.Module, replyFlits(a, d.LinkGBps, false, false))
			},
			space: []sim.PortRef{rep.InjectSpace(i)},
		})
		rep.SetEndpoint(i, sinkPort(mod.linkFillIn))
		for ch := range mod.linkReqIn {
			mod.linkReqIn[ch].Attach(s.LinkClk)
			mod.linkFillIn[ch].Attach(s.LinkClk)
		}
	}

	req.RegisterMetrics(s.Reg, "link", "link", false)
	rep.RegisterMetrics(s.Reg, "link", "link", true)
	s.Reg.Counter("chaos-link", "link", "chaos_faults_total",
		"fault occurrences on the inter-module link injectors",
		func() int64 { return fired(s.linkInjectors) })
}

// linkXbars returns the link crossbars, request then reply: empty in a
// machine of one module, so loops over it need no module-count test.
func (s *System) linkXbars() []*noc.Crossbar {
	if s.LinkClk == nil {
		return nil
	}
	return []*noc.Crossbar{s.LinkReq, s.LinkRep}
}

// monitorLink adds the link's progress probe, invariant checkers, dump
// contributors and queue watchers to the machine's monitor.
func (s *System) monitorLink(mon *health.Monitor) {
	link := s.linkXbars()
	mon.AddProbe(health.Probe{
		Name: "link",
		Sample: func() int64 {
			var v int64
			for _, x := range link {
				v += x.Stat.FlitsMoved
			}
			return v
		},
		Busy: func() bool {
			for _, x := range link {
				if x.Pending() > 0 {
					return true
				}
			}
			for _, mod := range s.Mods {
				for ch := range mod.linkMissOut {
					if mod.linkMissOut[ch].Len() > 0 || mod.linkReqIn[ch].Len() > 0 ||
						mod.linkRepOut[ch].Len() > 0 || mod.linkFillIn[ch].Len() > 0 {
						return true
					}
				}
			}
			return false
		},
	})
	for _, x := range link {
		mon.AddChecker(x)
		mon.AddDumper(x.DumpHealth)
	}
	for _, mod := range s.Mods {
		comp := mod.cname("link")
		for ch := range mod.linkMissOut {
			watchQueue(mon, comp, fmt.Sprintf("miss-%d", ch), mod.linkMissOut[ch])
			watchQueue(mon, comp, fmt.Sprintf("reqin-%d", ch), mod.linkReqIn[ch])
			watchQueue(mon, comp, fmt.Sprintf("repout-%d", ch), mod.linkRepOut[ch])
			watchQueue(mon, comp, fmt.Sprintf("fill-%d", ch), mod.linkFillIn[ch])
		}
	}
}

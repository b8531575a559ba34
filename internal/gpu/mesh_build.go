package gpu

import (
	"dcl1sim/internal/mem"
	"dcl1sim/internal/noc"
)

// Mesh wiring for the MeshBase extension design: the baseline machine
// (private per-core L1s) with its monolithic crossbar replaced by a 2D mesh.
// Cores occupy the first grid nodes in row-major order; L2 slices occupy the
// remaining nodes, so reply traffic crosses the die like request traffic.

// meshShape picks a near-square grid holding cores + L2 slices.
func meshShape(nodes int) (w, h int) {
	w = 1
	for w*w < nodes {
		w++
	}
	h = (nodes + w - 1) / w
	return w, h
}

// wireMeshNoC builds the mesh stage: one request and one reply mesh,
// hand-wired because a mesh has one network per direction, addressed by grid
// node, where a crossbar stage has Count of them.
func (mod *Module) wireMeshNoC(st Stage) {
	s, cfg := mod.sys, mod.sys.Cfg
	clk := s.clock(st.Net)
	w, h := meshShape(st.Count)
	mk := func(dir string) *noc.Mesh {
		m := noc.NewMesh(noc.MeshParams{
			Name: mod.cname(st.xbarName(dir, 0)), Net: st.Net.String(), W: w, H: h, LinkBytes: st.FlitBytes,
		})
		mod.add(clk, m)
		return m
	}
	req, rep := mk("req"), mk("rep")
	mod.Stages = append(mod.Stages, &BuiltStage{Stage: st, MeshReq: req, MeshRep: rep})
	req.Attach(clk)
	rep.Attach(clk)

	l2Node := func(slice int) int { return cfg.Cores + slice }

	// Each mesh hosts the feeds injecting into it; the request mesh also
	// hosts the L2 ingress feeds, whose ports its sinks fill.
	for c, nd := range mod.Nodes {
		req.Feeds.Add(netFeed(req, func(a *mem.Access) bool {
			return s.inject(req, a, c, l2Node(mod.AMap.L2Slice(a.Line)), reqFlits(a, st.FlitBytes, true))
		}, nd.Q3))
		rep.SetEndpoint(c, s.sink(nd.Q4))
		nd.Q4.Attach(clk)
	}
	for i, l2 := range mod.L2 {
		req.SetEndpoint(l2Node(i), s.sink(mod.l2in[i]))
		mod.l2in[i].Attach(clk)
		req.Feeds.Add(feed(mod.l2in[i], l2.In.Push, l2.In.SpaceRef()))
		rep.Feeds.Add(netFeed(rep, func(a *mem.Access) bool {
			return s.retireOrphan(a) ||
				s.inject(rep, a, l2Node(i), mod.asker(a), replyFlits(a, st.FlitBytes, false))
		}, l2.Out))
	}
}

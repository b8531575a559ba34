package gpu

import (
	"dcl1sim/internal/cache"
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

func (mod *Module) wireMeshNoC() {
	cfg := mod.sys.Cfg
	total := cfg.Cores + cfg.L2Slices
	w, h := meshShape(total)
	mk := func(name string) *noc.Mesh {
		return noc.NewMesh(noc.MeshParams{
			Name: mod.cname(name), W: w, H: h, LinkBytes: mod.sys.D.FlitBytes,
		})
	}
	req := mk("mesh-req")
	rep := mk("mesh-rep")
	mod.MeshReq, mod.MeshRep = req, rep
	mod.sys.Noc2Clk.Register(req)
	mod.sys.Noc2Clk.Register(rep)
	req.AttachPorts(mod.sys.Noc2Clk)
	rep.AttachPorts(mod.sys.Noc2Clk)

	l2Node := func(slice int) int { return cfg.Cores + slice }

	for c := 0; c < cfg.Cores; c++ {
		c := c
		nd := mod.Nodes[c]
		mod.sys.Noc2Clk.Register(pump(nd.Q3, pumpRate, func(a *mem.Access) bool {
			return mod.sys.inject(req, a, c, l2Node(mod.AMap.L2Slice(a.Line)), reqFlits(a, mod.sys.D.FlitBytes, true))
		}))
		rep.SetEndpoint(c, mod.sys.sink(nd.Q4))
		nd.Q4.Attach(mod.sys.Noc2Clk)
	}
	for i := 0; i < cfg.L2Slices; i++ {
		req.SetEndpoint(l2Node(i), mod.sys.sink(mod.l2in[i]))
	}
	mod.wireL2Replies(func(a *mem.Access, slice int) bool {
		dst := a.Core
		if a.Core == cache.PrefetchCore {
			dst = a.Node
		}
		return mod.sys.inject(rep, a, l2Node(slice), dst, replyFlits(a, mod.sys.D.FlitBytes, false, false))
	}, nil)
}

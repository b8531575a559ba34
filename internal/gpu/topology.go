package gpu

import (
	"fmt"

	"dcl1sim/internal/noc"
	"dcl1sim/internal/power"
	"dcl1sim/internal/sim"
)

// A design's interconnect is data: an ordered table of stages, one row of the
// paper's Table I each, computed by DesignTopology and read by everything
// that needs the shape — the build, the power model and the clocks (DESIGN.md
// §16).

// Net is the clock domain a stage ticks on; its name is also the stage's
// metric domain and series-family prefix.
type Net uint8

const (
	NetNoC1 Net = iota // cores <-> DC-L1 nodes (CDXBar: its first stage)
	NetNoC2            // (DC-)L1 nodes <-> L2 slices
	NetLink            // between the modules of a multi-GPU machine
)

// String returns the domain's clock name.
func (n Net) String() string { return [...]string{"noc1", "noc2", "link"}[n] }

// Stage is one row of a design's topology table.
type Stage struct {
	// Name stems the component names: <Name>-req and <Name>-rep, suffixed
	// -<i> when the stage is Indexed.
	Name string
	Net  Net
	// Count crossbars per direction, each Ins x Outs toward memory.
	Count     int
	Ins, Outs int
	// Indexed stages number their crossbars even when Count is 1 (the PrY,
	// CZ and CDXBar rows, whose count is a design parameter).
	Indexed bool
	// MHz is the stage's clock, FlitBytes its link width, RouterLat its switch
	// latency in its own cycles, LinkMM the one-way wire length the energy
	// model charges per flit.
	MHz       int64
	FlitBytes int
	RouterLat sim.Cycle
	LinkMM    float64
}

// Topology is everything the interconnect of one design needs decided before
// anything is built.
type Topology struct {
	// Noc1MHz and Noc2MHz clock the two on-chip domains, which exist (and
	// tick) even in a design with no stage on one of them.
	Noc1MHz, Noc2MHz int64
	// Stages run from the cores toward memory, the inter-module link last.
	Stages []Stage
}

// DesignTopology computes the design's stage table on the given machine
// (defaults applied to both), or the reason the design cannot be built there.
// It is the only place Table I's arithmetic and its divisibility rules are
// written: PrY is Y crossbars of Cores/Y x 1 plus one Y x L2; ShY+CZ is Z of
// Cores/Z x Y/Z plus M = Y/Z of Z x L2/M.
func DesignTopology(cfg Config, d Design) (Topology, error) {
	cfg = cfg.WithDefaults()
	d = d.withDefaults(cfg)
	if err := d.named(cfg); err != nil {
		return Topology{}, err
	}
	t := Topology{Noc1MHz: NoCMHz, Noc2MHz: NoCMHz}
	if d.Boost1 {
		t.Noc1MHz *= 2
	}
	if d.Boost2 {
		t.Noc2MHz *= 2
	}
	row := func(name string, net Net, count, ins, outs int, mm float64) *Stage {
		mhz := t.Noc1MHz
		if net == NetNoC2 {
			mhz = t.Noc2MHz
		}
		t.Stages = append(t.Stages, Stage{
			Name: name, Net: net, Count: count, Ins: ins, Outs: outs,
			MHz: mhz, FlitBytes: d.FlitBytes, RouterLat: 2, LinkMM: mm,
		})
		return &t.Stages[len(t.Stages)-1]
	}
	cores, l2s := cfg.Cores, cfg.L2Slices
	if (d.Kind == Shared || d.Kind == Clustered) && d.DCL1s > cores {
		return Topology{}, fmt.Errorf("gpu: %d DC-L1 nodes exceed %d cores", d.DCL1s, cores)
	}
	switch d.Kind {
	case Baseline:
		row("noc", NetNoC2, 1, cores, l2s, power.LongLinkMM)
	case Private:
		if cores%d.DCL1s != 0 {
			return Topology{}, fmt.Errorf("gpu: %d cores not divisible by %d DC-L1 nodes", cores, d.DCL1s)
		}
		row("noc1", NetNoC1, d.DCL1s, cores/d.DCL1s, 1, power.ShortLinkMM).Indexed = true
		row("noc2", NetNoC2, 1, d.DCL1s, l2s, power.LongLinkMM)
	case Shared:
		row("noc1", NetNoC1, 1, cores, d.DCL1s, power.LongLinkMM)
		row("noc2", NetNoC2, 1, d.DCL1s, l2s, power.LongLinkMM)
	case Clustered:
		z := d.Clusters
		if d.DCL1s%z != 0 || cores%z != 0 {
			return Topology{}, fmt.Errorf("gpu: clusters (%d) must divide cores (%d) and DC-L1 nodes (%d)",
				z, cores, d.DCL1s)
		}
		m := d.DCL1s / z
		if l2s%m != 0 {
			return Topology{}, fmt.Errorf("gpu: DC-L1s per cluster (%d) must divide L2 slices (%d)", m, l2s)
		}
		row("noc1", NetNoC1, z, cores/z, m, power.ShortLinkMM).Indexed = true
		row("noc2", NetNoC2, m, z, l2s/m, power.LongLinkMM).Indexed = true
	case CDXBar:
		g, mid := d.CDXGroups, d.CDXMid
		if cores%g != 0 || l2s%mid != 0 {
			return Topology{}, fmt.Errorf("gpu: CDXBar groups (%d) / mid links (%d) must divide cores (%d) / L2 slices (%d)",
				g, mid, cores, l2s)
		}
		// The same inventory as ShY+CZ with Z = g and M = mid, which is why
		// the paper reports similar NoC area and power for the two.
		row("cdx-s1", NetNoC1, g, cores/g, mid, power.ShortLinkMM).Indexed = true
		row("cdx-s2", NetNoC2, mid, g, l2s/mid, power.LongLinkMM).Indexed = true
	case SingleL1:
		// The study's connections are ideal: the rows say what a network of
		// that reach would cost, the build places direct feeds and no crossbar.
		row("noc1", NetNoC1, 1, cores, 1, power.LongLinkMM)
		row("noc2", NetNoC2, 1, 1, l2s, power.LongLinkMM)
	case MeshBase:
		// One 5-port router per endpoint, on a request and a reply mesh.
		row("mesh", NetNoC2, cores+l2s, 5, 5, power.ShortLinkMM)
	}

	if d.Modules < 0 || d.Modules > MaxModules {
		return Topology{}, fmt.Errorf("gpu: module count %d outside [0, %d]", d.Modules, MaxModules)
	}
	if d.Modules < 2 {
		if d.LinkGBps != 0 || d.LinkLat != 0 || d.PrivateAS {
			return Topology{}, fmt.Errorf("gpu: inter-module link parameters require Modules >= 2")
		}
		return t, nil
	}
	if d.LinkGBps > MaxLinkGBps {
		return Topology{}, fmt.Errorf("gpu: link bandwidth %d GB/s exceeds %d", d.LinkGBps, MaxLinkGBps)
	}
	if d.LinkLat > MaxLinkLat {
		return Topology{}, fmt.Errorf("gpu: link latency %d exceeds %d cycles", d.LinkLat, MaxLinkLat)
	}
	t.Stages = append(t.Stages, Stage{
		Name: "link", Net: NetLink, Count: 1, Ins: d.Modules, Outs: d.Modules,
		MHz: LinkClkMHz, FlitBytes: d.LinkGBps, RouterLat: d.LinkLat,
	})
	return t, nil
}

// Validate reports whether the design is buildable on the given machine
// configuration, after defaults are applied to both.
func (d Design) Validate(cfg Config) error {
	_, err := DesignTopology(cfg, d)
	return err
}

// DesignNoCSpec projects the design's on-chip stages onto the power model
// (one physical subnetwork; request/reply duplication cancels in
// normalization). A design that does not validate has no NoC to describe.
func DesignNoCSpec(cfg Config, d Design) power.NoCSpec {
	t, err := DesignTopology(cfg, d)
	if err != nil {
		return power.NoCSpec{}
	}
	spec := power.NoCSpec{Name: d.Kind.String()}
	for _, st := range t.Stages {
		if st.Net == NetLink {
			continue
		}
		spec.Xbars = append(spec.Xbars, power.XbarSpec{
			In: st.Ins, Out: st.Outs, Count: st.Count,
			FlitBytes: st.FlitBytes, FreqMHz: float64(st.MHz), LinkMM: st.LinkMM,
		})
	}
	return spec
}

// xbarName names crossbar i of the stage's dir ("req" or "rep") direction.
func (st Stage) xbarName(dir string, i int) string {
	if st.Indexed {
		return fmt.Sprintf("%s-%s-%d", st.Name, dir, i)
	}
	return st.Name + "-" + dir
}

// BuiltStage is a Stage as wired: a module holds its on-chip stages in table
// order, the machine its link. SingleL1's stages hold no network at all.
type BuiltStage struct {
	Stage
	Req, Rep         []*noc.Crossbar // Count each
	MeshReq, MeshRep *noc.Mesh       // MeshBase's stage only
}

// buildStage makes the stage's crossbars — the only place crossbars are made
// — under the name prefix: Count request/reply pairs, registered on the
// stage's clock, whose barrier publishes their injections, and added to the
// owner's parts.
func (s *System) buildStage(st Stage, prefix string, owner *parts) *BuiltStage {
	clk := s.clock(st.Net)
	b := &BuiltStage{Stage: st}
	mk := func(dir string, i, ins, outs int) *noc.Crossbar {
		x := noc.New(noc.Params{Name: prefix + st.xbarName(dir, i), Net: st.Net.String(), Reply: dir == "rep",
			Ins: ins, Outs: outs, LinkBytes: st.FlitBytes, RouterLat: st.RouterLat})
		owner.add(clk, x)
		return x
	}
	for i := 0; i < st.Count; i++ {
		req, rep := mk("req", i, st.Ins, st.Outs), mk("rep", i, st.Outs, st.Ins)
		b.Req, b.Rep = append(b.Req, req), append(b.Rep, rep)
		req.Attach(clk)
		rep.Attach(clk)
	}
	return b
}

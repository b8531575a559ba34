package gpu

import (
	"fmt"

	"dcl1sim/internal/cache"
	"dcl1sim/internal/chaos"
	"dcl1sim/internal/core"
	"dcl1sim/internal/dcl1"
	"dcl1sim/internal/dram"
	"dcl1sim/internal/mem"
	"dcl1sim/internal/metrics"
	"dcl1sim/internal/noc"
	"dcl1sim/internal/power"
	"dcl1sim/internal/sim"
	"dcl1sim/internal/workload"
)

// feedRate is how many accesses a feed moves from each source per cycle.
const feedRate = 2

// Bounds of the multi-GPU assembly (DESIGN.md §16).
const (
	// MaxModules caps the module count of one machine.
	MaxModules = 8
	// MaxLinkGBps caps the inter-module link bandwidth per direction.
	MaxLinkGBps = 1024
	// MaxLinkLat caps the link switch latency in link cycles.
	MaxLinkLat = 4096
	// LinkClkMHz is the inter-module link clock: 1 GHz, so a link's GB/s
	// rating equals its flit width in bytes per link cycle.
	LinkClkMHz = 1000
)

// System is one fully wired machine executing one application: one or more
// GPU modules on a shared engine, joined by an inter-module link when there
// is more than one (DESIGN.md §16). The paper's GPU is the machine of one
// module.
//
// The machine owns what every module shares — the engine and its clock
// domains, the recycling pool, the metric registry, the link — and every
// run-level operation (chaos, telemetry, monitor, run, collect). A
// Module owns the hardware of one GPU.
type System struct {
	Cfg Config
	D   Design
	App workload.Source
	// Topo is the design's stage table, which the build wires and every
	// reader of the interconnect walks (topology.go).
	Topo Topology

	Eng     *sim.Engine
	CoreClk *sim.Clock
	Noc1Clk *sim.Clock
	Noc2Clk *sim.Clock
	MemClk  *sim.Clock
	// LinkClk is the inter-module link's clock domain; nil in a machine of one
	// module, which builds no link at all.
	LinkClk *sim.Clock

	// Mods are the GPU modules in index order; there is always at least one.
	Mods []*Module

	// Link is the built inter-module stage (requests toward home DRAM, fills
	// back toward the origin); nil with one module.
	Link *BuiltStage

	// Pool recycles Access and Packet values across the whole machine; nil
	// disables pooling (WithoutPool). See DESIGN.md §10 for the ownership
	// contract that makes both modes bit-identical.
	Pool   *mem.Pool
	noPool bool

	// Reg holds every module's series plus the link's. Registration is
	// closures over counters the components already maintain, so an
	// unobserved registry costs nothing per cycle.
	Reg *metrics.Registry

	// linkParts are the link's crossbars, which belong to the machine, not
	// to a module; empty with one module.
	linkParts parts
	// chaosSpec is the normalized fault-injection spec (InstallChaos).
	chaosSpec *chaos.Spec
	// collector exists only after InstallTelemetry.
	collector *metrics.Collector
}

// Module is one GPU of the machine: cores, (DC-)L1 nodes, NoCs, L2 and DRAM,
// wired per the design, ticking on the machine's clocks.
type Module struct {
	sys *System
	// parts are the module's components in build order, their series and
	// their injectors.
	parts

	Cores []*core.Core
	Nodes []*dcl1.Node // private L1 nodes (Baseline/CDXBar) or DC-L1 nodes
	L2    []*cache.Ctrl
	l2in  []*sim.Port[*mem.Access]
	Drams []*dram.Channel
	// Stages are the module's built on-chip stages, one per non-link row of
	// the machine's Topo, in table order.
	Stages []*BuiltStage

	// Tracker is the module's replication directory over its L1 nodes. It
	// is staged: the nodes' installs and evictions go to one log, in tick
	// order, which the core clock's edge barrier publishes, so a node reads
	// the directory as of the previous edge whichever nodes ticked before it.
	Tracker *cache.Presence
	Map     dcl1.Mapping
	AMap    mem.AddressMap

	// meter integrates this module's power zones; gov exists only after
	// InstallTelemetry with a cap (one governor per module, each regulating
	// its own cores, as independent GPUs would).
	meter *power.Meter
	gov   *governor

	// Placement in the machine (the module's index is AMap.Module): its
	// component-name prefix ("m<i>.", empty in a machine of one module).
	prefix string

	// Inter-module link ports, one per DRAM channel (built only in a linked
	// machine; see wireMemSide). linkMissOut carries remote-homed L2 misses
	// toward the link; linkReqIn receives remote modules' requests for local
	// DRAM; linkRepOut carries local DRAM fills bound for a remote module;
	// linkFillIn receives fills coming back from remote DRAM.
	linkMissOut []*sim.Port[*mem.Access]
	linkReqIn   []*sim.Port[*mem.Access]
	linkRepOut  []*sim.Port[*mem.Access]
	linkFillIn  []*sim.Port[*mem.Access]
}

// parts are the components one owner holds — a module its hardware, the
// machine its link crossbars — in build order, the series they registered and
// the injectors chaos armed on them. The registry, the power zones and chaos
// walk an owner's parts; the monitor and the warm-up reset walk the engine's
// clocks.
type parts struct {
	comps     []component
	series    []*metrics.Series
	injectors []*chaos.Injector
}

// add registers c on clk and records it as one of the owner's components.
func (p *parts) add(clk *sim.Clock, c component) {
	clk.Register(c)
	p.comps = append(p.comps, c)
}

// cname prefixes a component name with the module namespace ("m0.", "m1.",
// ...) in a multi-module machine; single-module names are unchanged.
func (mod *Module) cname(name string) string { return mod.prefix + name }

// BuildOption adjusts how NewSystem assembles a machine.
type BuildOption func(*System)

// WithoutPool builds the system with pooling disabled: every Access/Packet
// is allocated fresh and dropped to the garbage collector. Exists for the
// pooled-vs-unpooled equivalence tests; simulated results are identical.
func WithoutPool() BuildOption { return func(s *System) { s.noPool = true } }

// NewSystem builds the machine for design d running app: max(1, d.Modules)
// modules on one engine. A machine of one module builds no link clock, link
// ports or link crossbars, carries no "m0." name prefix and leaves its
// AddressMap unpartitioned. In a machine of several, every module runs the
// same program image of app.
func NewSystem(cfg Config, d Design, app workload.Source, opts ...BuildOption) *System {
	cfg = cfg.WithDefaults()
	d = d.withDefaults(cfg)
	topo, err := DesignTopology(cfg, d)
	if err != nil {
		panic(err.Error())
	}

	s := &System{Cfg: cfg, D: d, App: app, Topo: topo, Eng: sim.NewEngine(), Reg: metrics.NewRegistry()}
	for _, o := range opts {
		o(s)
	}
	if !s.noPool {
		s.Pool = mem.NewPool()
	}

	s.CoreClk = s.Eng.NewClock("core", coreMHz)
	s.Noc1Clk = s.Eng.NewClock(NetNoC1.String(), topo.Noc1MHz)
	s.Noc2Clk = s.Eng.NewClock(NetNoC2.String(), topo.Noc2MHz)
	s.MemClk = s.Eng.NewClock("mem", memMHz)
	n := max(1, d.Modules)
	if n > 1 {
		s.LinkClk = s.Eng.NewClock(NetLink.String(), LinkClkMHz)
	}
	// One plan of the app serves every module.
	program := workload.Streams(app, cfg.Cores, cfg.Sched, cfg.Seed)
	for i := 0; i < n; i++ {
		s.Mods = append(s.Mods, s.newModule(i, n, program))
	}
	if n > 1 {
		s.wireLink()
	}
	return s
}

// clock returns the clock domain a stage on net ticks on.
func (s *System) clock(net Net) *sim.Clock {
	return [...]*sim.Clock{s.Noc1Clk, s.Noc2Clk, s.LinkClk}[net]
}

// newModule builds module i of n and wires the machine's stage table into it:
// each design kind is its rows, where their taps sit, and the two routing
// rules of each crossbar stage.
func (s *System) newModule(i, n int, program func(coreID, waveID int) core.Program) *Module {
	cfg, d := s.Cfg, s.D
	mod := &Module{sys: s, AMap: cfg.AddressMap()}
	if n > 1 {
		mod.prefix = fmt.Sprintf("m%d.", i)
		mod.AMap.Modules = n
		mod.AMap.Module = i
		mod.AMap.Private = d.PrivateAS
	}

	mod.Map = homeMap(cfg, d)
	l1 := mod.l1NodeParams(0).Cache
	mod.Tracker = cache.NewPresence(mod.Map.Nodes() * l1.Sets * l1.Ways)
	mod.buildCores(program)
	mod.buildNodes()
	mod.buildL2AndDram()

	st := s.Topo.Stages
	switch d.Kind {
	case Baseline:
		mod.wireLocalL1()
		mod.wireStage(st[0], mod.memEdge(st[0], mod.nodeTaps(true), st[0].Count))
	case Private, Shared, Clustered:
		// NoC#1: each crossbar joins Ins neighbouring cores to the Outs
		// neighbouring DC-L1 nodes that can be their home.
		noc1 := st[0]
		mod.wireStage(noc1, edge{
			toCore: true, ups: mod.coreTaps(), downs: mod.nodeTaps(false),
			forward: func(c int, a *mem.Access) int { return mod.Map.Home(c, a.Line) % noc1.Outs },
			back:    func(a *mem.Access) int { return int(a.Core) % noc1.Ins },
		})
		mod.wireStage(st[1], mod.memEdge(st[1], mod.nodeTaps(true), st[1].Count))
	case CDXBar:
		// Fig 19a: stage 1 concentrates each group of Ins private-L1 cores onto
		// Outs mid links (on the NoC#1 clock, so CDXBar+2xNoC1 boosts it alone);
		// stage 2 crosses mid link j of every group to the slices with
		// slice mod Count = j.
		mod.wireLocalL1()
		s1 := st[0]
		mids := make([]tap, s1.Count*s1.Outs)
		for k := range mids {
			mids[k] = tap{req: sim.NewPort[*mem.Access](4), rep: sim.NewPort[*mem.Access](4)}
		}
		mod.wireStage(s1, edge{
			ups: mod.nodeTaps(true), downs: mids,
			forward: func(_ int, a *mem.Access) int { return mod.AMap.L2Slice(a.Line) % s1.Outs },
			back:    func(a *mem.Access) int { return mod.asker(a) % s1.Ins },
		})
		mod.wireStage(st[1], mod.memEdge(st[1], mids, s1.Ins))
	case SingleL1:
		mod.wireSingleL1()
	case MeshBase:
		mod.wireLocalL1()
		mod.wireMeshNoC(st[0])
	}
	mod.wireMemSide()
	mod.registerMetrics()
	return mod
}

// homeMap returns the design's core-to-node mapping: how many L1/DC-L1 nodes
// a module holds and which of them serves a core's access to a line.
func homeMap(cfg Config, d Design) dcl1.Mapping {
	switch d.Kind {
	case Private:
		return dcl1.PrivateMap{Cores: cfg.Cores, NodeCount: d.DCL1s}
	case Shared:
		return dcl1.SharedMap{NodeCount: d.DCL1s}
	case Clustered:
		return dcl1.ClusteredMap{Cores: cfg.Cores, NodeCount: d.DCL1s, Clusters: d.Clusters}
	case SingleL1:
		return dcl1.SharedMap{NodeCount: 1}
	default:
		return dcl1.PrivateMap{Cores: cfg.Cores, NodeCount: cfg.Cores}
	}
}

// buildCores builds the module's cores, each wavefront's stream from program.
func (mod *Module) buildCores(program func(coreID, waveID int) core.Program) {
	cfg, app := mod.sys.Cfg, mod.sys.App
	for c := 0; c < cfg.Cores; c++ {
		co := core.New(core.Params{
			ID:             c,
			Name:           mod.cname(fmt.Sprintf("core-%d", c)),
			MaxOutstanding: cfg.MaxOutstanding,
			OutCap:         8,
			InCap:          16,
			Pool:           mod.sys.Pool,
		})
		waves := app.WavesFor(c)
		for w := 0; w < waves; w++ {
			co.AddWave(program(c, w))
		}
		mod.Cores = append(mod.Cores, co)
		mod.add(mod.sys.CoreClk, co)
		// The core is the single producer of its Out port and ticks on the
		// core clock. (In is attached by the design-specific wiring — its
		// producer differs per topology.)
		co.Out.Attach(mod.sys.CoreClk)
	}
}

// l1NodeParams derives the cache geometry of one L1/DC-L1 node.
func (mod *Module) l1NodeParams(id int) dcl1.Params {
	cfg, d := mod.sys.Cfg, mod.sys.D
	// The nodes split the summed capacity of the cores' L1s evenly (one
	// core's worth each where every core keeps its own).
	totalLines := cfg.Cores * cfg.L1KB * 1024 / mem.LineBytes * d.L1CapacityScale
	perNodeLines := totalLines / mod.Map.Nodes()
	sets := perNodeLines / l1Ways
	if sets < 1 {
		sets = 1
	}
	bankBytes := perNodeLines * mem.LineBytes
	lat := sim.Cycle(power.CacheAccessLatency(bankBytes, int(cfg.L1Lat)))
	ports := 1
	qcap := 4
	pump := feedRate
	mshrs := l1MSHRs
	ctrlCap := 8
	if d.Kind == SingleL1 {
		// Hypothetical study: total capacity, bandwidth, and MSHR budget of
		// all 80 private L1s concentrated in one node.
		ports = cfg.Cores
		qcap = 4 * cfg.Cores
		pump = 2 * cfg.Cores
		lat = cfg.L1Lat
		mshrs = l1MSHRs * cfg.Cores
		ctrlCap = 4 * cfg.Cores
	}
	// A home-sliced DC-L1 only caches every homeMod-th line — one per node
	// behind its NoC#1 crossbar; the sequential prefetcher must stride
	// accordingly.
	homeMod := 1
	if d.Kind == Shared || d.Kind == Clustered {
		homeMod = mod.sys.Topo.Stages[0].Outs
	}
	policy := cache.WriteEvict
	if d.L1WriteBack {
		policy = cache.WriteBack
	}
	return dcl1.Params{
		ID: id,
		Cache: cache.Params{
			Name:           mod.cname(fmt.Sprintf("l1-%d", id)),
			Domain:         "core",
			Family:         "l1",
			Sets:           sets,
			Ways:           l1Ways,
			HitLatency:     lat,
			MSHRs:          mshrs,
			MaxMerge:       l1MaxMerge,
			Ports:          ports,
			Policy:         policy,
			Perfect:        d.PerfectL1,
			PrefetchNext:   d.PrefetchNext,
			PrefetchStride: homeMod,
			InCap:          ctrlCap,
			OutCap:         ctrlCap,
			MissCap:        ctrlCap,
			FillCap:        ctrlCap,
			Pool:           mod.sys.Pool,
		},
		QueueCap:     qcap,
		PumpPerCycle: pump,
	}
}

func (mod *Module) buildNodes() {
	for i := 0; i < mod.Map.Nodes(); i++ {
		nd := dcl1.New(mod.l1NodeParams(i), mod.Tracker)
		mod.Nodes = append(mod.Nodes, nd)
		mod.add(mod.sys.CoreClk, nd)
		// The node produces Q2 (replies toward cores) and Q3 (misses toward
		// NoC#2) on the core clock. Q1/Q4 are attached by the wiring that
		// creates their producers. The node's internal Ctrl queues stay in
		// immediate mode: a single component owns both ends.
		nd.Q2.Attach(mod.sys.CoreClk)
		nd.Q3.Attach(mod.sys.CoreClk)
	}
	// Publish the tracker's log at the core clock's edge barrier: the one
	// piece of state every node reads and writes, which no node may see
	// half-updated by the others' ticks. Nodes tick in registration order in
	// both tick modes and every op comes from inside its node's Tick, so the
	// log holds the ops node by node, in node order.
	mod.sys.CoreClk.OnBarrier(mod.Tracker.Staged())
}

func (mod *Module) buildL2AndDram() {
	cfg := mod.sys.Cfg
	lines := cfg.L2KB * 1024 / mem.LineBytes
	sets := lines / l2Ways
	for i := 0; i < cfg.L2Slices; i++ {
		l2 := cache.New(cache.Params{
			Name:       mod.cname(fmt.Sprintf("l2-%d", i)),
			Domain:     NetNoC2.String(),
			Family:     "l2",
			Sets:       sets,
			Ways:       l2Ways,
			HitLatency: l2Lat,
			MSHRs:      l2MSHRs,
			MaxMerge:   16,
			Ports:      1,
			Policy:     cache.WriteBack,
			InCap:      8,
			OutCap:     8,
			MissCap:    8,
			FillCap:    8,
			Pool:       mod.sys.Pool,
		}, 1000+i, nil)
		mod.L2 = append(mod.L2, l2)
		in := sim.NewPort[*mem.Access](8)
		mod.l2in = append(mod.l2in, in)
		mod.add(mod.sys.Noc2Clk, l2)
		// Port producers, identical across designs: the L2 controller emits
		// Out/MissOut on the NoC#2 clock; L2.In is fed by the l2in feed (NoC#2
		// clock); FillIn by the DRAM reply feed (memory clock). l2in is
		// attached by the design's wiring, which creates its producer.
		l2.Out.Attach(mod.sys.Noc2Clk)
		l2.MissOut.Attach(mod.sys.Noc2Clk)
		l2.In.Attach(mod.sys.Noc2Clk)
		l2.FillIn.Attach(mod.sys.MemClk)
	}
	for ch := 0; ch < cfg.Channels; ch++ {
		dc := dram.New(dram.Params{
			Name:  mod.cname(fmt.Sprintf("mc-%d", ch)),
			Banks: dramBanks,
			Map:   mod.AMap,
		})
		mod.Drams = append(mod.Drams, dc)
		mod.add(mod.sys.MemClk, dc)
		dc.Out.Attach(mod.sys.MemClk)
	}
}

// feed returns a feed moving accesses from src through try at feedRate, for
// the component it feeds to host (sim.Feed). space names the ports try pushes
// into: what a refused try waits for.
func feed(src *sim.Port[*mem.Access], try func(a *mem.Access) bool, space ...sim.PortRef) *sim.Feed[*mem.Access] {
	return &sim.Feed[*mem.Access]{Srcs: []*sim.Port[*mem.Access]{src}, Rate: feedRate, Try: try, Space: space}
}

// netFeed returns a feed injecting accesses from srcs into the network net
// through try, for net to host: a refused try waits for net's credits.
func netFeed(net packetNet, try func(a *mem.Access) bool, srcs ...*sim.Port[*mem.Access]) *sim.Feed[*mem.Access] {
	return &sim.Feed[*mem.Access]{Srcs: srcs, Rate: feedRate, Try: try, Credits: net.CreditsReturned}
}

// spaceRefs names the space of every port of ports, for a feed whose try
// picks its destination among them.
func spaceRefs(ports []*sim.Port[*mem.Access]) []sim.PortRef {
	refs := make([]sim.PortRef, len(ports))
	for i, p := range ports {
		refs[i] = p.SpaceRef()
	}
	return refs
}

// sink delivers a packet's access into q and retires the packet shell. Every
// crossbar/mesh packet is consumed at a sink (or rejected at inject), so the
// sink is the single retirement point that keeps packet pooling leak-free.
func (s *System) sink(q *sim.Port[*mem.Access]) noc.Endpoint {
	return noc.EndpointFunc(func(p *mem.Packet) bool {
		if !q.Push(p.Acc) {
			return false
		}
		s.Pool.PutPacket(p)
		return true
	})
}

// packetNet is any network accepting packet injections (Crossbar or Mesh).
type packetNet interface {
	Inject(*mem.Packet) bool
	CreditsReturned() int64
}

// inject wraps a in a pooled packet and offers it to x. A refused injection
// (backpressure) returns the packet to the pool immediately, so the caller's
// retry next cycle allocates nothing either.
func (s *System) inject(x packetNet, a *mem.Access, src, dst, flits int) bool {
	p := s.Pool.GetPacket()
	p.Acc, p.Src, p.Dst, p.Flits = a, src, dst, flits
	if !x.Inject(p) {
		s.Pool.PutPacket(p)
		return false
	}
	return true
}

// retireOrphan consumes a if nothing waits for it: the ACK of an L1 writeback
// (Core == -1, produced when the write-back L1 ablation evicts dirty lines)
// has no requester.
func (s *System) retireOrphan(a *mem.Access) bool {
	if a.Kind == mem.Store && a.Core == -1 {
		s.Pool.PutAccess(a)
		return true
	}
	return false
}

// wireLocalL1 connects each core to its colocated private L1 node
// (Baseline and CDXBar): core↔node queues move at core clock, both ways
// by feeds the node hosts.
func (mod *Module) wireLocalL1() {
	for c := 0; c < mod.sys.Cfg.Cores; c++ {
		co, nd := mod.Cores[c], mod.Nodes[c]
		nd.Feeds.Add(feed(co.Out, nd.Q1.Push, nd.Q1.SpaceRef()))
		nd.Feeds.Add(feed(nd.Q2, co.In.Push, co.In.SpaceRef()))
		nd.Q1.Attach(mod.sys.CoreClk)
		co.In.Attach(mod.sys.CoreClk)
	}
}

// tap is one endpoint of a stage: the port its requests travel on and the
// port its replies travel on. An upstream tap plugs into an input of a
// request crossbar and the same-numbered output of its reply crossbar, a
// downstream tap the other way round.
type tap struct {
	req, rep *sim.Port[*mem.Access]
	// l2 marks a downstream tap as an L2 slice, whose ingress feed and orphan
	// ACKs the stage that reaches it looks after.
	l2 *cache.Ctrl
}

// coreTaps returns the cores as the upstream taps of NoC#1.
func (mod *Module) coreTaps() []tap {
	ts := make([]tap, len(mod.Cores))
	for c, co := range mod.Cores {
		ts[c] = tap{req: co.Out, rep: co.In}
	}
	return ts
}

// nodeTaps returns the L1/DC-L1 nodes as taps: their memory side (misses out
// of Q3, fills into Q4) upstream of a stage, or their core side (requests
// into Q1, replies out of Q2) downstream of NoC#1.
func (mod *Module) nodeTaps(memSide bool) []tap {
	ts := make([]tap, len(mod.Nodes))
	for n, nd := range mod.Nodes {
		if memSide {
			ts[n] = tap{req: nd.Q3, rep: nd.Q4}
		} else {
			ts[n] = tap{req: nd.Q1, rep: nd.Q2}
		}
	}
	return ts
}

// edge is what a crossbar stage connects and how it routes.
type edge struct {
	ups, downs []tap
	// striped deals tap k of either side to crossbar k mod Count, port
	// k / Count (the address-sliced stage in front of the L2, Fig 10);
	// otherwise each crossbar takes the next Ins upstream and Outs downstream
	// taps in order.
	striped bool
	// forward picks the request crossbar's output for access a entering at
	// upstream tap up; back picks the reply crossbar's output for a reply.
	forward func(up int, a *mem.Access) int
	back    func(a *mem.Access) int
	// toCore marks the stage between cores and DC-L1 nodes: stores carry only
	// the written bytes and load replies may be trimmed (flits.go). Every
	// other stage moves whole lines.
	toCore bool
}

// asker returns the L1/DC-L1 node a reply from the memory side is for: the
// node that prefetched the line, else the home of the requesting core.
func (mod *Module) asker(a *mem.Access) int {
	if a.Core == cache.PrefetchCore {
		return int(a.Node)
	}
	return mod.Map.Home(int(a.Core), a.Line)
}

// memEdge is the edge of the stage that reaches the L2 slices: crossbar j
// serves the slices with slice mod Count = j. A reply finds its port from the
// node that asked, nodesPerPort consecutive nodes sharing one.
func (mod *Module) memEdge(st Stage, ups []tap, nodesPerPort int) edge {
	downs := make([]tap, len(mod.L2))
	for i, l2 := range mod.L2 {
		downs[i] = tap{req: mod.l2in[i], rep: l2.Out, l2: l2}
	}
	return edge{
		ups: ups, downs: downs, striped: true,
		forward: func(_ int, a *mem.Access) int { return mod.AMap.L2Slice(a.Line) / st.Count },
		back:    func(a *mem.Access) int { return mod.asker(a) / nodesPerPort },
	}
}

// wireStage builds one crossbar stage and plugs the edge's taps into it: per
// upstream tap a feed injecting its requests and the sink delivering its
// replies; per downstream tap the sink delivering its requests and a feed
// injecting its replies. Each injecting feed is hosted by the crossbar it
// injects into; an L2 tap's ingress feed (its sink's port into L2.In) by the
// request crossbar that fills that port. Every port a sink or feed fills is
// produced on the stage's clock.
func (mod *Module) wireStage(st Stage, e edge) {
	s := mod.sys
	clk := s.clock(st.Net)
	b := s.buildStage(st, mod.prefix, &mod.parts)
	mod.Stages = append(mod.Stages, b)
	// The feeds outlive the build: they capture what they use, not the edge.
	forward, back, flit, toCore := e.forward, e.back, st.FlitBytes, e.toCore
	// seat finds tap k's crossbar and port on a side width ports wide.
	seat := func(k, width int) (xbar, port int) {
		if e.striped {
			return k % st.Count, k / st.Count
		}
		return k / width, k % width
	}
	for k, u := range e.ups {
		i, port := seat(k, st.Ins)
		req := b.Req[i]
		req.Feeds.Add(netFeed(req, func(a *mem.Access) bool {
			return s.inject(req, a, port, forward(k, a), reqFlits(a, flit, !toCore))
		}, u.req))
		b.Rep[i].SetEndpoint(port, s.sink(u.rep))
		u.rep.Attach(clk)
	}
	for k, d := range e.downs {
		i, port := seat(k, st.Outs)
		req, rep := b.Req[i], b.Rep[i]
		req.SetEndpoint(port, s.sink(d.req))
		d.req.Attach(clk)
		if d.l2 != nil {
			req.Feeds.Add(feed(d.req, d.l2.In.Push, d.l2.In.SpaceRef()))
		}
		rep.Feeds.Add(netFeed(rep, func(a *mem.Access) bool {
			if d.l2 != nil && s.retireOrphan(a) {
				return true
			}
			return s.inject(rep, a, port, back(a), replyFlits(a, flit, toCore))
		}, d.rep))
	}
}

// wireSingleL1 connects all cores directly to one aggregated L1 node and the
// node directly to the L2 slices (Section II-C hypothetical: total L1
// capacity AND bandwidth preserved, no NoC contention modeled — the study
// isolates the capacity effect of eliminating replication). Its two rows are
// recorded as built stages holding no network. The node hosts the core-clock
// feeds; on the NoC#2 clock each slice hosts its ingress feed and slice 0
// the two that cross to and from the node.
func (mod *Module) wireSingleL1() {
	for _, st := range mod.sys.Topo.Stages[:2] {
		mod.Stages = append(mod.Stages, &BuiltStage{Stage: st})
	}
	nd, l2 := mod.Nodes[0], mod.L2[0]
	outs := make([]*sim.Port[*mem.Access], len(mod.Cores))
	ins := make([]*sim.Port[*mem.Access], len(mod.Cores))
	for c, co := range mod.Cores {
		outs[c], ins[c] = co.Out, co.In
		co.In.Attach(mod.sys.CoreClk)
	}
	// Every core's Out feeds the one node's Q1, so the fan-in must be a
	// single feed: an attached port has exactly one producer.
	nd.Feeds.Add(&sim.Feed[*mem.Access]{
		Srcs: outs, Rate: feedRate, Try: nd.Q1.Push, Space: []sim.PortRef{nd.Q1.SpaceRef()},
	})
	nd.Q1.Attach(mod.sys.CoreClk)
	// Replies demultiplex back to cores by Access.Core.
	wide := func(src *sim.Port[*mem.Access], try func(a *mem.Access) bool, space []sim.PortRef) *sim.Feed[*mem.Access] {
		f := feed(src, try, space...)
		f.Rate = 2 * mod.sys.Cfg.Cores
		return f
	}
	nd.Feeds.Add(wide(nd.Q2, func(a *mem.Access) bool {
		return mod.Cores[a.Core].In.Push(a)
	}, spaceRefs(ins)))
	// Miss path: ideal full-width connection to the L2 slices.
	l2.Feeds.Add(wide(nd.Q3, func(a *mem.Access) bool {
		return mod.l2in[mod.AMap.L2Slice(a.Line)].Push(a)
	}, spaceRefs(mod.l2in)))
	// L2 side: per-slice l2in→L2.In feeds, plus one fan-in over all L2
	// outputs into the node's Q4 (again a single producer), consuming orphan
	// writeback ACKs as wireStage does for the NoC designs.
	l2outs := make([]*sim.Port[*mem.Access], len(mod.L2))
	for i, sl := range mod.L2 {
		mod.l2in[i].Attach(mod.sys.Noc2Clk)
		sl.Feeds.Add(feed(mod.l2in[i], sl.In.Push, sl.In.SpaceRef()))
		l2outs[i] = sl.Out
	}
	l2.Feeds.Add(&sim.Feed[*mem.Access]{Srcs: l2outs, Rate: feedRate, Try: func(a *mem.Access) bool {
		return mod.sys.retireOrphan(a) || nd.Q4.Push(a)
	}, Space: []sim.PortRef{nd.Q4.SpaceRef()}})
	nd.Q4.Attach(mod.sys.Noc2Clk)
}

// wireMemSide connects L2 miss queues to the DRAM channels and routes DRAM
// replies back to the owning slice. Each channel has one request feed and one
// fill feed, which split both directions by home module: misses for
// remote-homed lines divert to linkMissOut instead of local DRAM, and local
// DRAM fills bound for a remote origin divert to linkRepOut (on one module
// every line is local and every fill is the module's own). A linked machine
// adds the link ports as sources — remote modules' requests through
// linkReqIn, remote fills through linkFillIn — and stamps each locally
// originated miss with the module, so its fill can find the way home.
//
// A channel's request feed pushes on the NoC#2 clock, so an L2 slice hosts
// it: the channel's first slice (the last slice, for a channel with none);
// its fill feed, on the memory clock, is hosted by the channel.
func (mod *Module) wireMemSide() {
	multi := mod.sys.LinkClk != nil
	// Group each channel's slices so the channel's In port has one feed
	// draining the mapped MissOuts in slice order.
	missByCh := make([][]*sim.Port[*mem.Access], len(mod.Drams))
	fillByCh := make([][]*sim.Port[*mem.Access], len(mod.Drams))
	hosts := make([]*cache.Ctrl, len(mod.Drams))
	for i := range mod.L2 {
		ch := mod.AMap.Channel(i)
		missByCh[ch] = append(missByCh[ch], mod.L2[i].MissOut)
		fillByCh[ch] = append(fillByCh[ch], mod.L2[i].FillIn)
		if hosts[ch] == nil {
			hosts[ch] = mod.L2[i]
		}
	}
	for ch, dc := range mod.Drams {
		host := hosts[ch]
		if host == nil {
			host = mod.L2[len(mod.L2)-1]
		}
		// Local slices first, in slice order, then the link ingress; DRAM
		// output first, then fills arriving over the link. Orphan writeback
		// ACKs retire at the home module (nothing waits for them).
		req := &sim.Feed[*mem.Access]{
			Srcs: missByCh[ch], Rate: feedRate, Space: []sim.PortRef{dc.In.SpaceRef()},
			Try: func(a *mem.Access) bool {
				if mod.AMap.Local(a.Line) {
					return dc.In.Push(a)
				}
				return mod.linkMissOut[ch].Push(a)
			},
		}
		fill := &sim.Feed[*mem.Access]{
			Srcs: []*sim.Port[*mem.Access]{dc.Out}, Rate: feedRate, Space: spaceRefs(fillByCh[ch]),
			Try: func(a *mem.Access) bool {
				if mod.sys.retireOrphan(a) {
					return true
				}
				if int(a.Module) != mod.AMap.Module {
					return mod.linkRepOut[ch].Push(a)
				}
				return mod.L2[mod.AMap.L2Slice(a.Line)].FillIn.Push(a)
			},
		}
		dc.In.Attach(mod.sys.Noc2Clk)
		if multi {
			missOut, reqIn := sim.NewPort[*mem.Access](8), sim.NewPort[*mem.Access](8)
			repOut, fillIn := sim.NewPort[*mem.Access](8), sim.NewPort[*mem.Access](8)
			mod.linkMissOut = append(mod.linkMissOut, missOut)
			mod.linkReqIn = append(mod.linkReqIn, reqIn)
			mod.linkRepOut = append(mod.linkRepOut, repOut)
			mod.linkFillIn = append(mod.linkFillIn, fillIn)
			nLocal := len(req.Srcs)
			req.Srcs = append(req.Srcs, reqIn)
			req.Prep = func(si int, a *mem.Access) {
				if si < nLocal {
					a.Module = int16(mod.AMap.Module)
				}
			}
			req.Space = append(req.Space, missOut.SpaceRef())
			fill.Srcs = append(fill.Srcs, fillIn)
			fill.Space = append(fill.Space, repOut.SpaceRef())
			missOut.Attach(mod.sys.Noc2Clk)
			repOut.Attach(mod.sys.MemClk)
		}
		host.Feeds.Add(req)
		dc.Feeds.Add(fill)
	}
}

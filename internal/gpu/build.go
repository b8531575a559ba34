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

const pumpRate = 2

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

	// LinkReq and LinkRep are the inter-module crossbars (requests toward
	// home DRAM, fills back toward the origin); nil with one module.
	LinkReq *noc.Crossbar
	LinkRep *noc.Crossbar

	// Pool recycles Access and Packet values across the whole machine; nil
	// disables pooling (WithoutPool). See DESIGN.md §10 for the ownership
	// contract that makes both modes bit-identical.
	Pool   *mem.Pool
	noPool bool

	// Reg holds every module's series plus the link's. Registration is
	// closures over counters the components already maintain, so an
	// unobserved registry costs nothing per cycle.
	Reg *metrics.Registry

	// chaosSpec is the normalized fault-injection spec (InstallChaos);
	// linkInjectors perturb the link crossbars, each module holds its own.
	chaosSpec     *chaos.Spec
	linkInjectors []*chaos.Injector
	// collector exists only after InstallTelemetry.
	collector *metrics.Collector
}

// Module is one GPU of the machine: cores, (DC-)L1 nodes, NoCs, L2 and DRAM,
// wired per the design, ticking on the machine's clocks.
type Module struct {
	sys *System
	// App programs this module's cores: the machine's source, or in a
	// multi-module machine this module's tenant of a workload.ModuleSource.
	App workload.Source

	Cores   []*core.Core
	Nodes   []*dcl1.Node // private L1 nodes (Baseline/CDXBar) or DC-L1 nodes
	L2      []*cache.Ctrl
	l2in    []*sim.Port[*mem.Access]
	Drams   []*dram.Channel
	Noc1Req []*noc.Crossbar
	Noc1Rep []*noc.Crossbar
	Noc2Req []*noc.Crossbar
	Noc2Rep []*noc.Crossbar

	// MeshReq/MeshRep are populated only by the MeshBase design.
	MeshReq *noc.Mesh
	MeshRep *noc.Mesh

	Tracker *cache.Presence
	// stages defer each L1 node's replication-tracker mutations to the core
	// clock's edge barrier (one per node, applied in node order), so tracker
	// state never depends on intra-edge tick order. See cache.PresenceStage.
	stages []*cache.PresenceStage
	Map    dcl1.Mapping
	AMap   mem.AddressMap

	// injectors are this module's fault injectors, in installation order.
	injectors []*chaos.Injector

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

// cname prefixes a component name with the module namespace ("m0.", "m1.",
// ...) in a multi-module machine; single-module names are unchanged.
func (mod *Module) cname(name string) string { return mod.prefix + name }

// BuildOption adjusts how NewSystem assembles a machine.
type BuildOption func(*System)

// WithoutPool builds the system with pooling disabled: every Access/Packet
// is allocated fresh and dropped to the garbage collector. Exists for the
// pooled-vs-unpooled equivalence tests; simulated results are identical.
func WithoutPool() BuildOption { return func(s *System) { s.noPool = true } }

// nocClockMHz derives the two NoC clock frequencies of a design (the boost
// variants double one or both).
func nocClockMHz(cfg Config, d Design) (noc1MHz, noc2MHz int64) {
	noc1MHz = cfg.NoCMHz
	if d.Boost1 || d.CDXBoostS1 || d.CDXBoostAll || (d.Kind == Baseline && d.NoCBoost) {
		noc1MHz *= 2
	}
	noc2MHz = cfg.NoCMHz
	if d.CDXBoostAll || (d.Kind == Baseline && d.NoCBoost) {
		noc2MHz *= 2
	}
	return noc1MHz, noc2MHz
}

// NewSystem builds the machine for design d running app: max(1, d.Modules)
// modules on one engine. A machine of one module builds no link clock, link
// ports or link crossbars, carries no "m0." name prefix and leaves its
// AddressMap unpartitioned. In a machine of several, sources implementing
// workload.ModuleSource place one tenant per module; any other Source runs
// the same program image on every module.
func NewSystem(cfg Config, d Design, app workload.Source, opts ...BuildOption) *System {
	cfg = cfg.WithDefaults()
	d = d.withDefaults(cfg)
	validate(cfg, d)

	s := &System{Cfg: cfg, D: d, App: app, Eng: sim.NewEngine(), Reg: metrics.NewRegistry()}
	for _, o := range opts {
		o(s)
	}
	if !s.noPool {
		s.Pool = mem.NewPool()
	}

	noc1MHz, noc2MHz := nocClockMHz(cfg, d)
	s.CoreClk = s.Eng.NewClock("core", cfg.CoreMHz)
	s.Noc1Clk = s.Eng.NewClock("noc1", noc1MHz)
	s.Noc2Clk = s.Eng.NewClock("noc2", noc2MHz)
	s.MemClk = s.Eng.NewClock("mem", cfg.MemMHz)
	n := max(1, d.Modules)
	if n > 1 {
		s.LinkClk = s.Eng.NewClock("link", LinkClkMHz)
	}
	for i := 0; i < n; i++ {
		s.Mods = append(s.Mods, s.newModule(i, n))
	}
	if n > 1 {
		s.wireLink()
	}
	return s
}

// newModule builds module i of n and wires it per the design.
func (s *System) newModule(i, n int) *Module {
	cfg, d := s.Cfg, s.D
	mod := &Module{sys: s, App: s.App, AMap: cfg.AddressMap()}
	if n > 1 {
		mod.prefix = fmt.Sprintf("m%d.", i)
		mod.AMap.Modules = n
		mod.AMap.Module = i
		mod.AMap.Private = d.PrivateAS
		if ms, ok := s.App.(workload.ModuleSource); ok {
			mod.App = ms.ForModule(i, n)
		}
	}

	l1 := mod.l1NodeParams(0).Cache
	mod.Tracker = cache.NewPresence(nodeCount(cfg, d) * l1.Sets * l1.Ways)
	mod.buildCores()
	mod.buildNodes()
	mod.buildL2AndDram()

	switch d.Kind {
	case Baseline, CDXBar:
		mod.Map = dcl1.PrivateMap{Cores: cfg.Cores, NodeCount: cfg.Cores}
		mod.wireLocalL1()
		if d.Kind == Baseline {
			mod.wireBaselineNoC()
		} else {
			mod.wireCDXBarNoC()
		}
	case Private:
		mod.Map = dcl1.PrivateMap{Cores: cfg.Cores, NodeCount: d.DCL1s}
		mod.wireNoC1()
		mod.wireNoC2Flat()
	case Shared:
		mod.Map = dcl1.SharedMap{NodeCount: d.DCL1s}
		mod.wireNoC1()
		mod.wireNoC2Flat()
	case Clustered:
		mod.Map = dcl1.ClusteredMap{Cores: cfg.Cores, NodeCount: d.DCL1s, Clusters: d.Clusters}
		mod.wireNoC1()
		mod.wireNoC2Clustered()
	case SingleL1:
		mod.Map = dcl1.SharedMap{NodeCount: 1}
		mod.wireSingleL1()
	case MeshBase:
		mod.Map = dcl1.PrivateMap{Cores: cfg.Cores, NodeCount: cfg.Cores}
		mod.wireLocalL1()
		mod.wireMeshNoC()
	}
	mod.wireMemSide()
	mod.registerMetrics()
	return mod
}

func validate(cfg Config, d Design) {
	if err := d.Validate(cfg); err != nil {
		panic(err.Error())
	}
}

// Validate reports whether the design's topology is buildable on the given
// machine configuration. Both the design and the configuration are checked
// after defaults are applied, matching what NewSystem would construct.
func (d Design) Validate(cfg Config) error {
	cfg = cfg.WithDefaults()
	d = d.withDefaults(cfg)
	switch d.Kind {
	case Private, Shared:
		if cfg.Cores%d.DCL1s != 0 && d.Kind == Private {
			return fmt.Errorf("gpu: %d cores not divisible by %d DC-L1 nodes", cfg.Cores, d.DCL1s)
		}
	case Clustered:
		if d.DCL1s%d.Clusters != 0 || cfg.Cores%d.Clusters != 0 {
			return fmt.Errorf("gpu: clusters (%d) must divide cores (%d) and DC-L1 nodes (%d)",
				d.Clusters, cfg.Cores, d.DCL1s)
		}
		m := d.DCL1s / d.Clusters
		if cfg.L2Slices%m != 0 {
			return fmt.Errorf("gpu: DC-L1s per cluster (%d) must divide L2 slices (%d)",
				m, cfg.L2Slices)
		}
	case CDXBar:
		if cfg.Cores%d.CDXGroups != 0 || cfg.L2Slices%d.CDXMid != 0 {
			return fmt.Errorf("gpu: CDXBar groups (%d) / mid links (%d) must divide cores (%d) / L2 slices (%d)",
				d.CDXGroups, d.CDXMid, cfg.Cores, cfg.L2Slices)
		}
	}
	if d.Modules < 0 || d.Modules > MaxModules {
		return fmt.Errorf("gpu: module count %d outside [0, %d]", d.Modules, MaxModules)
	}
	if d.Modules < 2 {
		if d.LinkGBps != 0 || d.LinkLat != 0 || d.PrivateAS {
			return fmt.Errorf("gpu: inter-module link parameters require Modules >= 2")
		}
		return nil
	}
	if d.LinkGBps > MaxLinkGBps {
		return fmt.Errorf("gpu: link bandwidth %d GB/s exceeds %d", d.LinkGBps, MaxLinkGBps)
	}
	if d.LinkLat > MaxLinkLat {
		return fmt.Errorf("gpu: link latency %d exceeds %d cycles", d.LinkLat, MaxLinkLat)
	}
	return nil
}

// nodeCount returns the number of L1/DC-L1 nodes one module of the design
// holds.
func nodeCount(cfg Config, d Design) int {
	switch d.Kind {
	case Baseline, CDXBar, MeshBase:
		return cfg.Cores
	case SingleL1:
		return 1
	default:
		return d.DCL1s
	}
}

func (mod *Module) buildCores() {
	cfg := mod.sys.Cfg
	for c := 0; c < cfg.Cores; c++ {
		co := core.New(core.Params{
			ID:             c,
			MaxOutstanding: cfg.MaxOutstanding,
			OutCap:         8,
			InCap:          16,
			WavesPerCTA:    cfg.WavesPerCTA,
			GTO:            cfg.GTO,
			Pool:           mod.sys.Pool,
		})
		waves := mod.App.WavesFor(c)
		for w := 0; w < waves; w++ {
			co.AddWave(mod.App.Program(cfg.Cores, c, w, cfg.Sched, cfg.Seed))
		}
		mod.Cores = append(mod.Cores, co)
		mod.sys.CoreClk.Register(co)
		// The core is the single producer of its Out port and ticks on the
		// core clock. (In is attached by the design-specific wiring — its
		// producer differs per topology.)
		co.Out.Attach(mod.sys.CoreClk)
	}
}

// l1NodeParams derives the cache geometry of one L1/DC-L1 node.
func (mod *Module) l1NodeParams(id int) dcl1.Params {
	cfg, d := mod.sys.Cfg, mod.sys.D
	nodes := nodeCount(cfg, d)
	totalLines := cfg.Cores * cfg.L1KB * 1024 / mem.LineBytes * d.L1CapacityScale
	perNodeLines := totalLines
	if d.Kind == Baseline || d.Kind == CDXBar || d.Kind == MeshBase {
		perNodeLines = cfg.L1KB * 1024 / mem.LineBytes * d.L1CapacityScale
	} else {
		perNodeLines = totalLines / nodes
	}
	sets := perNodeLines / cfg.L1Ways
	if sets < 1 {
		sets = 1
	}
	bankBytes := perNodeLines * mem.LineBytes
	lat := sim.Cycle(power.CacheAccessLatency(bankBytes, int(cfg.L1Lat)))
	ports := 1
	qcap := 4
	pump := pumpRate
	mshrs := cfg.L1MSHRs
	ctrlCap := 8
	if d.Kind == SingleL1 {
		// Hypothetical study: total capacity, bandwidth, and MSHR budget of
		// all 80 private L1s concentrated in one node.
		ports = cfg.Cores
		qcap = 4 * cfg.Cores
		pump = 2 * cfg.Cores
		lat = cfg.L1Lat
		mshrs = cfg.L1MSHRs * cfg.Cores
		ctrlCap = 4 * cfg.Cores
	}
	// A home-sliced DC-L1 only caches every homeMod-th line; the sequential
	// prefetcher must stride accordingly.
	homeMod := 1
	switch d.Kind {
	case Shared:
		homeMod = d.DCL1s
	case Clustered:
		homeMod = d.DCL1s / d.Clusters
	}
	policy := cache.WriteEvict
	if d.L1WriteBack {
		policy = cache.WriteBack
	}
	return dcl1.Params{
		ID: id,
		Cache: cache.Params{
			Name:           mod.cname(fmt.Sprintf("l1-%d", id)),
			Sets:           sets,
			Ways:           cfg.L1Ways,
			HitLatency:     lat,
			MSHRs:          mshrs,
			MaxMerge:       cfg.L1MaxMerge,
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
	n := nodeCount(mod.sys.Cfg, mod.sys.D)
	for i := 0; i < n; i++ {
		st := cache.NewPresenceStage(mod.Tracker)
		mod.stages = append(mod.stages, st)
		nd := dcl1.New(mod.l1NodeParams(i), st)
		mod.Nodes = append(mod.Nodes, nd)
		mod.sys.CoreClk.Register(nd)
		// The node produces Q2 (replies toward cores) and Q3 (misses toward
		// NoC#2) on the core clock. Q1/Q4 are attached by the wiring that
		// creates their producers. The node's internal Ctrl queues stay in
		// immediate mode: a single component owns both ends.
		nd.Q2.Attach(mod.sys.CoreClk)
		nd.Q3.Attach(mod.sys.CoreClk)
	}
	// Apply every node's staged replication-tracker ops at the core clock's
	// edge barrier, in node order — the one piece of state every node reads
	// and writes, which no node may see half-updated by the others' ticks.
	mod.sys.CoreClk.OnBarrier(func() {
		for _, st := range mod.stages {
			st.Apply()
		}
	})
}

func (mod *Module) buildL2AndDram() {
	cfg := mod.sys.Cfg
	lines := cfg.L2KB * 1024 / mem.LineBytes
	sets := lines / cfg.L2Ways
	for i := 0; i < cfg.L2Slices; i++ {
		l2 := cache.New(cache.Params{
			Name:       mod.cname(fmt.Sprintf("l2-%d", i)),
			Sets:       sets,
			Ways:       cfg.L2Ways,
			HitLatency: cfg.L2Lat,
			MSHRs:      cfg.L2MSHRs,
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
		mod.sys.Noc2Clk.Register(l2)
		// Port producers, identical across designs: the L2 controller emits
		// Out/MissOut on the NoC#2 clock; l2in is fed by the request network
		// (or the SingleL1 miss pump), always on the NoC#2 clock; L2.In by
		// the l2in pump (NoC#2 clock); FillIn by the DRAM reply pump (memory
		// clock). l2in groups with its consumer-side slice neighborhood;
		// FillIn with its producer channel's MemClk group.
		l2.Out.Attach(mod.sys.Noc2Clk)
		l2.MissOut.Attach(mod.sys.Noc2Clk)
		l2.In.Attach(mod.sys.Noc2Clk)
		l2.FillIn.Attach(mod.sys.MemClk)
		in.Attach(mod.sys.Noc2Clk)
	}
	for ch := 0; ch < cfg.Channels; ch++ {
		dc := dram.New(dram.Params{
			Name:  mod.cname(fmt.Sprintf("mc-%d", ch)),
			Banks: cfg.DramBanks,
			Map:   mod.AMap,
		})
		mod.Drams = append(mod.Drams, dc)
		// MemClk namespace: channel ch and everything serving it (the reply
		// pump, the slices' FillIn ports) share group ch; LPT spreads the
		// channels round-robin.
		mod.sys.MemClk.Register(dc)
		dc.Out.Attach(mod.sys.MemClk)
	}
}

// multiPump drains source ports through an injection function in fixed source
// order, up to rate accesses per source per cycle. Several sources share one
// pump where many logical producers feed one queue (all cores into the
// SingleL1 node, all of a DRAM channel's slices into its In port): an attached
// port admits exactly one producer component, so the fan-in must be a single
// ticker and the destination's staging buffer is never written concurrently.
// The optional prep hook runs before try with the source index, letting a
// fan-in treat sources differently (the multi-GPU DRAM fan-in stamps locally
// originated misses with the module id while link arrivals keep theirs).
//
// It implements sim.Sleeper — with every source empty a tick would do nothing
// — and keeps no per-cycle counters, so no SkipIdle compensation is needed. A
// wiring site that names in space everything a refused try waits for (the
// destination ports, or the crossbar input whose credits ran out) also lets
// the pump sleep through back-pressure: refused records that the last tick
// left every non-empty source on a refusal, and only the barrier that frees
// one of space — which wakes the pump to try again — can change that. A site
// that names nothing keeps polling.
type multiPump struct {
	srcs  []*sim.Port[*mem.Access]
	rate  int
	try   func(a *mem.Access) bool
	prep  func(src int, a *mem.Access)
	space []sim.PortRef

	refused bool
}

func (p *multiPump) Tick(sim.Cycle) {
	p.refused = len(p.space) > 0
	for si, q := range p.srcs {
		moved := 0
		for ; moved < p.rate; moved++ {
			a, ok := q.Peek()
			if !ok {
				break
			}
			if p.prep != nil {
				p.prep(si, a)
			}
			if !p.try(a) {
				break
			}
			q.Pop()
		}
		if moved == p.rate && !q.Empty() {
			p.refused = false // stopped by the rate, not by a refusal
		}
	}
}

// NextWorkCycle implements sim.Sleeper. The refusal memo counts only while
// the engine has bound the pump to its space sources: unbound, nothing would
// wake it to try again.
func (p *multiPump) NextWorkCycle(now sim.Cycle) sim.Cycle {
	if p.refused && p.space[0].Bound() {
		return sim.WakeNever
	}
	for _, q := range p.srcs {
		if !q.Empty() {
			return now
		}
	}
	return sim.WakeNever
}

// WakeSources implements sim.WakeSourcer.
func (p *multiPump) WakeSources() []sim.PortRef {
	refs := make([]sim.PortRef, 0, len(p.srcs)+len(p.space))
	for _, q := range p.srcs {
		refs = append(refs, q.Ref())
	}
	return append(refs, p.space...)
}

// pump returns a Ticker moving accesses from q through try, up to rate/cycle,
// sleeping through refusals when the site names what they wait for in space.
func pump(q *sim.Port[*mem.Access], rate int, try func(a *mem.Access) bool, space ...sim.PortRef) sim.Ticker {
	return &multiPump{srcs: []*sim.Port[*mem.Access]{q}, rate: rate, try: try, space: space}
}

// spaceRefs names the space of every port of ports, for a pump whose try
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

func (mod *Module) xbar(name string, ins, outs int) *noc.Crossbar {
	return noc.New(noc.Params{
		Name: mod.cname(name), Ins: ins, Outs: outs,
		LinkBytes: mod.sys.D.FlitBytes, RouterLat: 2,
	})
}

// wireLocalL1 connects each core to its colocated private L1 node
// (Baseline and CDXBar): core↔node queues move at core clock.
func (mod *Module) wireLocalL1() {
	for c := 0; c < mod.sys.Cfg.Cores; c++ {
		co, nd := mod.Cores[c], mod.Nodes[c]
		mod.sys.CoreClk.Register(pump(co.Out, pumpRate, nd.Q1.Push, nd.Q1.SpaceRef()))
		mod.sys.CoreClk.Register(pump(nd.Q2, pumpRate, co.In.Push, co.In.SpaceRef()))
		nd.Q1.Attach(mod.sys.CoreClk)
		co.In.Attach(mod.sys.CoreClk)
	}
}

// wireBaselineNoC builds the 80×32 request and 32×80 reply crossbars between
// the L1 nodes and the L2 slices.
func (mod *Module) wireBaselineNoC() {
	cfg := mod.sys.Cfg
	req := mod.xbar("noc-req", cfg.Cores, cfg.L2Slices)
	rep := mod.xbar("noc-rep", cfg.L2Slices, cfg.Cores)
	mod.Noc2Req = []*noc.Crossbar{req}
	mod.Noc2Rep = []*noc.Crossbar{rep}
	mod.sys.Noc2Clk.Register(req)
	mod.sys.Noc2Clk.Register(rep)
	req.AttachPorts(mod.sys.Noc2Clk)
	rep.AttachPorts(mod.sys.Noc2Clk)
	for c := 0; c < cfg.Cores; c++ {
		c := c
		nd := mod.Nodes[c]
		mod.sys.Noc2Clk.Register(pump(nd.Q3, pumpRate, func(a *mem.Access) bool {
			return mod.sys.inject(req, a, c, mod.AMap.L2Slice(a.Line), reqFlits(a, mod.sys.D.FlitBytes, true))
		}, req.InjectSpace(c)))
		rep.SetEndpoint(c, mod.sys.sink(nd.Q4))
		nd.Q4.Attach(mod.sys.Noc2Clk)
	}
	for i := 0; i < cfg.L2Slices; i++ {
		req.SetEndpoint(i, mod.sys.sink(mod.l2in[i]))
	}
	mod.wireL2Replies(func(a *mem.Access, slice int) bool {
		dst := a.Core
		if a.Core == cache.PrefetchCore {
			dst = a.Node
		}
		return mod.sys.inject(rep, a, slice, dst, replyFlits(a, mod.sys.D.FlitBytes, false, false))
	}, rep.InjectSpace)
}

// wireNoC1 builds NoC#1 between lite cores and DC-L1 nodes for the Private,
// Shared, and Clustered designs.
func (mod *Module) wireNoC1() {
	cfg, d := mod.sys.Cfg, mod.sys.D
	switch d.Kind {
	case Private:
		per := cfg.Cores / d.DCL1s
		for n := 0; n < d.DCL1s; n++ {
			n := n
			req := mod.xbar(fmt.Sprintf("noc1-req-%d", n), per, 1)
			rep := mod.xbar(fmt.Sprintf("noc1-rep-%d", n), 1, per)
			mod.Noc1Req = append(mod.Noc1Req, req)
			mod.Noc1Rep = append(mod.Noc1Rep, rep)
			mod.sys.Noc1Clk.Register(req)
			mod.sys.Noc1Clk.Register(rep)
			req.AttachPorts(mod.sys.Noc1Clk)
			rep.AttachPorts(mod.sys.Noc1Clk)
			req.SetEndpoint(0, mod.sys.sink(mod.Nodes[n].Q1))
			mod.Nodes[n].Q1.Attach(mod.sys.Noc1Clk)
		}
		for c := 0; c < cfg.Cores; c++ {
			c := c
			n := c / per
			req := mod.Noc1Req[n]
			src := c % per
			mod.sys.Noc1Clk.Register(pump(mod.Cores[c].Out, pumpRate, func(a *mem.Access) bool {
				return mod.sys.inject(req, a, src, 0, reqFlits(a, d.FlitBytes, false))
			}, req.InjectSpace(src)))
			mod.Noc1Rep[n].SetEndpoint(src, mod.sys.sink(mod.Cores[c].In))
			mod.Cores[c].In.Attach(mod.sys.Noc1Clk)
		}
		for n := 0; n < d.DCL1s; n++ {
			n := n
			rep := mod.Noc1Rep[n]
			mod.sys.Noc1Clk.Register(pump(mod.Nodes[n].Q2, pumpRate, func(a *mem.Access) bool {
				return mod.sys.inject(rep, a, 0, a.Core%per, replyFlits(a, d.FlitBytes, true, *d.TrimReplies))
			}, rep.InjectSpace(0)))
		}
	case Shared:
		// Noc1Clk namespace: the two crossbar hubs get groups 0/1, each
		// core-side pump 2+c, each node-side pump 2+Cores+n; ports follow
		// their producers (inj ports the pumps, sink-fed queues the hub).
		req := mod.xbar("noc1-req", cfg.Cores, d.DCL1s)
		rep := mod.xbar("noc1-rep", d.DCL1s, cfg.Cores)
		mod.Noc1Req = []*noc.Crossbar{req}
		mod.Noc1Rep = []*noc.Crossbar{rep}
		mod.sys.Noc1Clk.Register(req)
		mod.sys.Noc1Clk.Register(rep)
		req.AttachPorts(mod.sys.Noc1Clk)
		rep.AttachPorts(mod.sys.Noc1Clk)
		for c := 0; c < cfg.Cores; c++ {
			c := c
			mod.sys.Noc1Clk.Register(pump(mod.Cores[c].Out, pumpRate, func(a *mem.Access) bool {
				return mod.sys.inject(req, a, c, mod.Map.Home(c, a.Line), reqFlits(a, d.FlitBytes, false))
			}, req.InjectSpace(c)))
			rep.SetEndpoint(c, mod.sys.sink(mod.Cores[c].In))
			mod.Cores[c].In.Attach(mod.sys.Noc1Clk)
		}
		for n := 0; n < d.DCL1s; n++ {
			n := n
			req.SetEndpoint(n, mod.sys.sink(mod.Nodes[n].Q1))
			mod.Nodes[n].Q1.Attach(mod.sys.Noc1Clk)
			mod.sys.Noc1Clk.Register(pump(mod.Nodes[n].Q2, pumpRate, func(a *mem.Access) bool {
				return mod.sys.inject(rep, a, n, a.Core, replyFlits(a, d.FlitBytes, true, *d.TrimReplies))
			}, rep.InjectSpace(n)))
		}
	case Clustered:
		z := d.Clusters
		m := d.DCL1s / z
		coresPer := cfg.Cores / z
		for cl := 0; cl < z; cl++ {
			cl := cl
			req := mod.xbar(fmt.Sprintf("noc1-req-%d", cl), coresPer, m)
			rep := mod.xbar(fmt.Sprintf("noc1-rep-%d", cl), m, coresPer)
			mod.Noc1Req = append(mod.Noc1Req, req)
			mod.Noc1Rep = append(mod.Noc1Rep, rep)
			mod.sys.Noc1Clk.Register(req)
			mod.sys.Noc1Clk.Register(rep)
			req.AttachPorts(mod.sys.Noc1Clk)
			rep.AttachPorts(mod.sys.Noc1Clk)
			for j := 0; j < m; j++ {
				req.SetEndpoint(j, mod.sys.sink(mod.Nodes[cl*m+j].Q1))
				mod.Nodes[cl*m+j].Q1.Attach(mod.sys.Noc1Clk)
			}
		}
		for c := 0; c < cfg.Cores; c++ {
			c := c
			cl := c / coresPer
			req := mod.Noc1Req[cl]
			mod.sys.Noc1Clk.Register(pump(mod.Cores[c].Out, pumpRate, func(a *mem.Access) bool {
				local := mod.Map.Home(c, a.Line) - cl*m
				return mod.sys.inject(req, a, c%coresPer, local, reqFlits(a, d.FlitBytes, false))
			}, req.InjectSpace(c%coresPer)))
			mod.Noc1Rep[cl].SetEndpoint(c%coresPer, mod.sys.sink(mod.Cores[c].In))
			mod.Cores[c].In.Attach(mod.sys.Noc1Clk)
		}
		for n := 0; n < d.DCL1s; n++ {
			n := n
			cl := n / m
			rep := mod.Noc1Rep[cl]
			mod.sys.Noc1Clk.Register(pump(mod.Nodes[n].Q2, pumpRate, func(a *mem.Access) bool {
				return mod.sys.inject(rep, a, n%m, a.Core%coresPer, replyFlits(a, d.FlitBytes, true, *d.TrimReplies))
			}, rep.InjectSpace(n%m)))
		}
	}
}

// wireSingleL1 connects all cores directly to one aggregated L1 node and the
// node directly to the L2 slices (Section II-C hypothetical: total L1
// capacity AND bandwidth preserved, no NoC contention modeled — the study
// isolates the capacity effect of eliminating replication).
func (mod *Module) wireSingleL1() {
	nd := mod.Nodes[0]
	// Every core's Out feeds the one node's Q1, so the fan-in must be a
	// single composite pump: an attached port has exactly one producer.
	outs := make([]*sim.Port[*mem.Access], mod.sys.Cfg.Cores)
	for c, co := range mod.Cores {
		outs[c] = co.Out
	}
	mod.sys.CoreClk.Register(&multiPump{
		srcs: outs, rate: pumpRate, try: nd.Q1.Push, space: []sim.PortRef{nd.Q1.SpaceRef()},
	})
	nd.Q1.Attach(mod.sys.CoreClk)
	// Replies demultiplex back to cores by Access.Core.
	ins := make([]*sim.Port[*mem.Access], len(mod.Cores))
	for c, co := range mod.Cores {
		ins[c] = co.In
		co.In.Attach(mod.sys.CoreClk)
	}
	mod.sys.CoreClk.Register(pump(nd.Q2, 2*mod.sys.Cfg.Cores, func(a *mem.Access) bool {
		return mod.Cores[a.Core].In.Push(a)
	}, spaceRefs(ins)...))
	// Miss path: ideal full-width connection to the L2 slices.
	mod.sys.Noc2Clk.Register(pump(nd.Q3, 2*mod.sys.Cfg.Cores, func(a *mem.Access) bool {
		return mod.l2in[mod.AMap.L2Slice(a.Line)].Push(a)
	}, spaceRefs(mod.l2in)...))
	// L2 side: per-slice l2in→L2.In pumps, plus one composite pump over all
	// L2 outputs into the node's Q4 (again a single producer), consuming
	// orphan writeback ACKs as wireL2Replies does for the NoC designs.
	l2outs := make([]*sim.Port[*mem.Access], len(mod.L2))
	for i := range mod.L2 {
		mod.sys.Noc2Clk.Register(pump(mod.l2in[i], pumpRate, mod.L2[i].In.Push, mod.L2[i].In.SpaceRef()))
		l2outs[i] = mod.L2[i].Out
	}
	mod.sys.Noc2Clk.Register(&multiPump{srcs: l2outs, rate: pumpRate, try: func(a *mem.Access) bool {
		if a.Kind == mem.Store && a.Core == -1 {
			mod.sys.Pool.PutAccess(a) // orphan writeback ACK: drop and retire
			return true
		}
		return nd.Q4.Push(a)
	}, space: []sim.PortRef{nd.Q4.SpaceRef()}})
	nd.Q4.Attach(mod.sys.Noc2Clk)
}

// wireNoC2Flat builds the single Y×L2 request / L2×Y reply crossbars used by
// Private, Shared, and SingleL1 designs.
func (mod *Module) wireNoC2Flat() {
	cfg := mod.sys.Cfg
	y := nodeCount(cfg, mod.sys.D)
	req := mod.xbar("noc2-req", y, cfg.L2Slices)
	rep := mod.xbar("noc2-rep", cfg.L2Slices, y)
	mod.Noc2Req = []*noc.Crossbar{req}
	mod.Noc2Rep = []*noc.Crossbar{rep}
	mod.sys.Noc2Clk.Register(req)
	mod.sys.Noc2Clk.Register(rep)
	req.AttachPorts(mod.sys.Noc2Clk)
	rep.AttachPorts(mod.sys.Noc2Clk)
	for n := 0; n < y; n++ {
		n := n
		mod.sys.Noc2Clk.Register(pump(mod.Nodes[n].Q3, pumpRate, func(a *mem.Access) bool {
			return mod.sys.inject(req, a, n, mod.AMap.L2Slice(a.Line), reqFlits(a, mod.sys.D.FlitBytes, true))
		}, req.InjectSpace(n)))
		rep.SetEndpoint(n, mod.sys.sink(mod.Nodes[n].Q4))
		mod.Nodes[n].Q4.Attach(mod.sys.Noc2Clk)
	}
	for i := 0; i < cfg.L2Slices; i++ {
		req.SetEndpoint(i, mod.sys.sink(mod.l2in[i]))
	}
	mod.wireL2Replies(func(a *mem.Access, slice int) bool {
		dst := mod.Map.Home(a.Core, a.Line)
		if a.Core == cache.PrefetchCore {
			dst = a.Node
		}
		return mod.sys.inject(rep, a, slice, dst, replyFlits(a, mod.sys.D.FlitBytes, false, false))
	}, rep.InjectSpace)
}

// wireNoC2Clustered builds the M crossbars of Z×(L2/M) in NoC#2 (Fig 10).
func (mod *Module) wireNoC2Clustered() {
	cfg, d := mod.sys.Cfg, mod.sys.D
	z := d.Clusters
	m := d.DCL1s / z
	o := cfg.L2Slices / m
	for j := 0; j < m; j++ {
		j := j
		req := mod.xbar(fmt.Sprintf("noc2-req-%d", j), z, o)
		rep := mod.xbar(fmt.Sprintf("noc2-rep-%d", j), o, z)
		mod.Noc2Req = append(mod.Noc2Req, req)
		mod.Noc2Rep = append(mod.Noc2Rep, rep)
		mod.sys.Noc2Clk.Register(req)
		mod.sys.Noc2Clk.Register(rep)
		req.AttachPorts(mod.sys.Noc2Clk)
		rep.AttachPorts(mod.sys.Noc2Clk)
		// Output ports: L2 slices with slice%m == j, indexed by slice/m.
		for k := 0; k < o; k++ {
			req.SetEndpoint(k, mod.sys.sink(mod.l2in[k*m+j]))
		}
	}
	for n := 0; n < d.DCL1s; n++ {
		n := n
		cl := n / m
		j := n % m
		req := mod.Noc2Req[j]
		mod.sys.Noc2Clk.Register(pump(mod.Nodes[n].Q3, pumpRate, func(a *mem.Access) bool {
			slice := mod.AMap.L2Slice(a.Line)
			return mod.sys.inject(req, a, cl, slice/m, reqFlits(a, d.FlitBytes, true))
		}, req.InjectSpace(cl)))
		mod.Noc2Rep[j].SetEndpoint(cl, mod.sys.sink(mod.Nodes[n].Q4))
		mod.Nodes[n].Q4.Attach(mod.sys.Noc2Clk)
	}
	cmap := mod.Map.(dcl1.ClusteredMap)
	mod.wireL2Replies(func(a *mem.Access, slice int) bool {
		j := slice % m
		dst := cmap.Cluster(a.Core)
		if a.Core == cache.PrefetchCore {
			dst = a.Node / m
		}
		return mod.sys.inject(mod.Noc2Rep[j], a, slice/m, dst, replyFlits(a, d.FlitBytes, false, false))
	}, func(slice int) sim.PortRef { return mod.Noc2Rep[slice%m].InjectSpace(slice / m) })
}

// wireCDXBarNoC builds the hierarchical two-stage crossbar (Fig 19a study):
// stage 1 concentrates groups of cores onto mid links, stage 2 crosses to
// the L2 slices. Private L1s remain in the cores.
func (mod *Module) wireCDXBarNoC() {
	cfg, d := mod.sys.Cfg, mod.sys.D
	g := d.CDXGroups
	mid := d.CDXMid
	per := cfg.Cores / g
	o := cfg.L2Slices / mid
	midReq := make([][]*sim.Port[*mem.Access], g)
	midRep := make([][]*sim.Port[*mem.Access], g)
	for i := range midReq {
		midReq[i] = make([]*sim.Port[*mem.Access], mid)
		midRep[i] = make([]*sim.Port[*mem.Access], mid)
		for j := range midReq[i] {
			midReq[i][j] = sim.NewPort[*mem.Access](4)
			midRep[i][j] = sim.NewPort[*mem.Access](4)
		}
	}
	// Stage 1 (per group): per×mid request, mid×per reply. Runs on Noc1Clk
	// so CDXBar+2xNoC1 boosts only this stage.
	var s1req, s1rep []*noc.Crossbar
	for gi := 0; gi < g; gi++ {
		gi := gi
		req := mod.xbar(fmt.Sprintf("cdx-s1-req-%d", gi), per, mid)
		rep := mod.xbar(fmt.Sprintf("cdx-s1-rep-%d", gi), mid, per)
		s1req = append(s1req, req)
		s1rep = append(s1rep, rep)
		mod.sys.Noc1Clk.Register(req)
		mod.sys.Noc1Clk.Register(rep)
		req.AttachPorts(mod.sys.Noc1Clk)
		rep.AttachPorts(mod.sys.Noc1Clk)
		for j := 0; j < mid; j++ {
			req.SetEndpoint(j, mod.sys.sink(midReq[gi][j]))
			midReq[gi][j].Attach(mod.sys.Noc1Clk)
		}
	}
	mod.Noc1Req = s1req
	mod.Noc1Rep = s1rep
	// Stage 2: mid crossbars of g×o request, o×g reply, on Noc2Clk.
	var s2req, s2rep []*noc.Crossbar
	for j := 0; j < mid; j++ {
		j := j
		req := mod.xbar(fmt.Sprintf("cdx-s2-req-%d", j), g, o)
		rep := mod.xbar(fmt.Sprintf("cdx-s2-rep-%d", j), o, g)
		s2req = append(s2req, req)
		s2rep = append(s2rep, rep)
		mod.sys.Noc2Clk.Register(req)
		mod.sys.Noc2Clk.Register(rep)
		req.AttachPorts(mod.sys.Noc2Clk)
		rep.AttachPorts(mod.sys.Noc2Clk)
		for k := 0; k < o; k++ {
			req.SetEndpoint(k, mod.sys.sink(mod.l2in[k*mid+j]))
		}
	}
	mod.Noc2Req = s2req
	mod.Noc2Rep = s2rep
	// Core L1 nodes inject into stage 1; mid queues pump into stage 2.
	for c := 0; c < cfg.Cores; c++ {
		c := c
		gi := c / per
		nd := mod.Nodes[c]
		req := s1req[gi]
		mod.sys.Noc1Clk.Register(pump(nd.Q3, pumpRate, func(a *mem.Access) bool {
			slice := mod.AMap.L2Slice(a.Line)
			return mod.sys.inject(req, a, c%per, slice%mid, reqFlits(a, d.FlitBytes, true))
		}, req.InjectSpace(c%per)))
		s1rep[gi].SetEndpoint(c%per, mod.sys.sink(nd.Q4))
		nd.Q4.Attach(mod.sys.Noc1Clk)
	}
	for gi := 0; gi < g; gi++ {
		gi := gi
		for j := 0; j < mid; j++ {
			j := j
			req2 := s2req[j]
			mod.sys.Noc2Clk.Register(pump(midReq[gi][j], pumpRate, func(a *mem.Access) bool {
				slice := mod.AMap.L2Slice(a.Line)
				return mod.sys.inject(req2, a, gi, slice/mid, reqFlits(a, d.FlitBytes, true))
			}, req2.InjectSpace(gi)))
			rep1 := s1rep[gi]
			mod.sys.Noc1Clk.Register(pump(midRep[gi][j], pumpRate, func(a *mem.Access) bool {
				who := a.Core
				if a.Core == cache.PrefetchCore {
					who = a.Node
				}
				return mod.sys.inject(rep1, a, j, who%per, replyFlits(a, d.FlitBytes, false, false))
			}, rep1.InjectSpace(j)))
		}
	}
	for j := 0; j < mid; j++ {
		j := j
		for gi := 0; gi < g; gi++ {
			s2rep[j].SetEndpoint(gi, mod.sys.sink(midRep[gi][j]))
			midRep[gi][j].Attach(mod.sys.Noc2Clk)
		}
	}
	mod.wireL2Replies(func(a *mem.Access, slice int) bool {
		j := slice % mid
		who := a.Core
		if a.Core == cache.PrefetchCore {
			who = a.Node
		}
		gi := who / per
		return mod.sys.inject(s2rep[j], a, slice/mid, gi, replyFlits(a, d.FlitBytes, false, false))
	}, func(slice int) sim.PortRef { return s2rep[slice%mid].InjectSpace(slice / mid) })
}

// wireL2Replies registers, for every L2 slice: the l2in→L2.In pump and the
// L2.Out→reply-network pump using the supplied injector, whose refusals wait
// for space(slice) — the reply network's input for that slice (nil: the
// network names none, and the pump polls). ACKs for L1 writebacks (Core ==
// -1, produced when the write-back L1 ablation evicts dirty lines) have no
// requester and are consumed here.
func (mod *Module) wireL2Replies(inject func(a *mem.Access, slice int) bool, space func(slice int) sim.PortRef) {
	for i := range mod.L2 {
		i := i
		var waits []sim.PortRef
		if space != nil {
			waits = []sim.PortRef{space(i)}
		}
		mod.sys.Noc2Clk.Register(pump(mod.l2in[i], pumpRate, mod.L2[i].In.Push, mod.L2[i].In.SpaceRef()))
		mod.sys.Noc2Clk.Register(pump(mod.L2[i].Out, pumpRate, func(a *mem.Access) bool {
			if a.Kind == mem.Store && a.Core == -1 {
				mod.sys.Pool.PutAccess(a) // orphan writeback ACK: drop and retire
				return true
			}
			return inject(a, i)
		}, waits...))
	}
}

// wireMemSide connects L2 miss queues to the DRAM channels and routes DRAM
// replies back to the owning slice. In a linked machine it also builds the
// per-channel link ports and splits both directions by home module: misses
// for remote-homed lines divert to linkMissOut instead of local DRAM, remote
// modules' requests arrive through linkReqIn, local DRAM fills bound for a
// remote origin divert to linkRepOut, and remote fills come home through
// linkFillIn. The single-module paths are untouched.
func (mod *Module) wireMemSide() {
	multi := mod.sys.LinkClk != nil
	if multi {
		for range mod.Drams {
			mod.linkMissOut = append(mod.linkMissOut, sim.NewPort[*mem.Access](8))
			mod.linkReqIn = append(mod.linkReqIn, sim.NewPort[*mem.Access](8))
			mod.linkRepOut = append(mod.linkRepOut, sim.NewPort[*mem.Access](8))
			mod.linkFillIn = append(mod.linkFillIn, sim.NewPort[*mem.Access](8))
		}
	}
	// Group each channel's slices so the channel's In port has one composite
	// producer draining the mapped MissOuts in slice order.
	missByCh := make([][]*sim.Port[*mem.Access], len(mod.Drams))
	fillByCh := make([][]*sim.Port[*mem.Access], len(mod.Drams))
	for i := range mod.L2 {
		ch := mod.AMap.Channel(i)
		missByCh[ch] = append(missByCh[ch], mod.L2[i].MissOut)
		fillByCh[ch] = append(fillByCh[ch], mod.L2[i].FillIn)
	}
	for ch, dc := range mod.Drams {
		if !multi {
			mod.sys.Noc2Clk.Register(&multiPump{
				srcs: missByCh[ch], rate: pumpRate, try: dc.In.Push, space: []sim.PortRef{dc.In.SpaceRef()},
			})
			dc.In.Attach(mod.sys.Noc2Clk)
			continue
		}
		ch, dc := ch, dc
		// Local slices first (in slice order, as in the single-module build),
		// then the link ingress; every locally originated miss is stamped with
		// the module so its fill can find the way home.
		nLocal := len(missByCh[ch])
		srcs := append(append([]*sim.Port[*mem.Access]{}, missByCh[ch]...), mod.linkReqIn[ch])
		mod.sys.Noc2Clk.Register(&multiPump{
			srcs: srcs,
			rate: pumpRate,
			prep: func(si int, a *mem.Access) {
				if si < nLocal {
					a.Module = mod.AMap.Module
				}
			},
			try: func(a *mem.Access) bool {
				if mod.AMap.Local(a.Line) {
					return dc.In.Push(a)
				}
				return mod.linkMissOut[ch].Push(a)
			},
			space: []sim.PortRef{dc.In.SpaceRef(), mod.linkMissOut[ch].SpaceRef()},
		})
		dc.In.Attach(mod.sys.Noc2Clk)
		mod.linkMissOut[ch].Attach(mod.sys.Noc2Clk)
	}
	for ch, dc := range mod.Drams {
		dc := dc
		if !multi {
			mod.sys.MemClk.Register(pump(dc.Out, pumpRate, func(a *mem.Access) bool {
				if a.Kind == mem.Store && a.Core == -1 {
					mod.sys.Pool.PutAccess(a) // orphan writeback ACK: drop and retire
					return true
				}
				return mod.L2[mod.AMap.L2Slice(a.Line)].FillIn.Push(a)
			}, spaceRefs(fillByCh[ch])...))
			continue
		}
		ch := ch
		// DRAM output first, then fills arriving over the link; orphan
		// writeback ACKs retire at the home module (nothing waits for them),
		// remote-origin fills divert to the link egress.
		mod.sys.MemClk.Register(&multiPump{
			srcs: []*sim.Port[*mem.Access]{dc.Out, mod.linkFillIn[ch]},
			rate: pumpRate,
			try: func(a *mem.Access) bool {
				if a.Kind == mem.Store && a.Core == -1 {
					mod.sys.Pool.PutAccess(a) // orphan writeback ACK: drop and retire
					return true
				}
				if a.Module != mod.AMap.Module {
					return mod.linkRepOut[ch].Push(a)
				}
				return mod.L2[mod.AMap.L2Slice(a.Line)].FillIn.Push(a)
			},
			space: append(spaceRefs(fillByCh[ch]), mod.linkRepOut[ch].SpaceRef()),
		})
		mod.linkRepOut[ch].Attach(mod.sys.MemClk)
	}
}

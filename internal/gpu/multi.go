package gpu

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"dcl1sim/internal/chaos"
	"dcl1sim/internal/health"
	"dcl1sim/internal/mem"
	"dcl1sim/internal/metrics"
	"dcl1sim/internal/noc"
	"dcl1sim/internal/power"
	"dcl1sim/internal/sim"
	"dcl1sim/internal/workload"
)

// Machine is a multi-GPU assembly (DESIGN.md §16): Design.Modules full
// Systems — each today's complete machine with cores, (DC-)L1 nodes, NoCs,
// L2, and DRAM — joined by an inter-module link. All modules share one
// engine, one set of clocks, one recycling pool, and one metric registry;
// each module's components carry an "m<i>." name prefix and live in
// module-scoped locality groups, so sharded execution can place whole
// modules coherently and no series or group ids collide.
//
// The link is an NVLink-ish pair of Modules×Modules crossbars (request and
// reply directions) on their own 1 GHz LinkClk domain, flit-sliced at
// Design.LinkGBps bytes per link cycle with Design.LinkLat switch latency
// and the same credit-based injection as the on-chip NoCs. In the default
// partitioned address space every line has one home module's DRAM
// (mem.AddressMap.HomeModule); an L2 miss for a remote-homed line crosses
// the link, reads the home DRAM, and the fill crosses back. The private
// mode (Design.PrivateAS) replicates the address space per module and the
// link stays idle.
type Machine struct {
	Cfg Config
	D   Design
	App workload.Source

	Eng     *sim.Engine
	CoreClk *sim.Clock
	Noc1Clk *sim.Clock
	Noc2Clk *sim.Clock
	MemClk  *sim.Clock
	LinkClk *sim.Clock

	// Mods are the GPU modules in index order.
	Mods []*System

	// LinkReq and LinkRep are the inter-module crossbars (requests toward
	// home DRAM, fills back toward the origin).
	LinkReq *noc.Crossbar
	LinkRep *noc.Crossbar

	Pool   *mem.Pool
	Reg    *metrics.Registry
	noPool bool

	chaosSpec     *chaos.Spec
	linkInjectors []*chaos.Injector
	collector     *metrics.Collector
}

// NewMachine builds the multi-GPU machine for design d (Modules >= 2)
// running app. Sources implementing workload.ModuleSource place one tenant
// per module; any other Source runs the same program image on every module.
func NewMachine(cfg Config, d Design, app workload.Source, opts ...BuildOption) *Machine {
	cfg = cfg.WithDefaults()
	d = d.withDefaults(cfg)
	validate(cfg, d)
	if d.Modules < 2 {
		panic("gpu: NewMachine requires Modules >= 2 (use NewSystem)")
	}

	m := &Machine{Cfg: cfg, D: d, App: app, Eng: sim.NewEngine()}
	// BuildOptions address per-module build knobs; apply them to a probe
	// System to learn what they set (today only WithoutPool).
	var probe System
	for _, o := range opts {
		o(&probe)
	}
	m.noPool = probe.noPool
	if !m.noPool {
		m.Pool = mem.NewPool()
	}
	m.Reg = metrics.NewRegistry()

	noc1MHz, noc2MHz := nocClockMHz(cfg, d)
	m.CoreClk = m.Eng.NewClock("core", cfg.CoreMHz)
	m.Noc1Clk = m.Eng.NewClock("noc1", noc1MHz)
	m.Noc2Clk = m.Eng.NewClock("noc2", noc2MHz)
	m.MemClk = m.Eng.NewClock("mem", cfg.MemMHz)
	m.LinkClk = m.Eng.NewClock("link", LinkClkMHz)

	// Per-clock group spans: generous upper bounds on the ids one module's
	// wiring allocates in each clock namespace. Collisions would only hurt
	// placement quality, never results, but disjoint spans keep each module
	// one coherent neighborhood for the locality-aware partitioner.
	nodes := nodeCountOf(cfg, d)
	coreSpan := cfg.Cores + nodes + 8
	noc1Span := 2*cfg.Cores + 2*nodes + 64
	noc2Span := cfg.L2Slices + cfg.Channels + 2*cfg.Cores + 2*nodes + 64
	memSpan := cfg.Channels + 8

	for i := 0; i < d.Modules; i++ {
		modApp := app
		if ms, ok := app.(workload.ModuleSource); ok {
			modApp = ms.ForModule(i, d.Modules)
		}
		bo := append([]BuildOption{withFabric(&fabric{
			eng:     m.Eng,
			coreClk: m.CoreClk,
			noc1Clk: m.Noc1Clk,
			noc2Clk: m.Noc2Clk,
			memClk:  m.MemClk,
			pool:    m.Pool,
			reg:     m.Reg,
			module:  i,
			modules: d.Modules,
			gbCore:  i * coreSpan,
			gbNoc1:  i * noc1Span,
			gbNoc2:  i * noc2Span,
			gbMem:   i * memSpan,
		})}, opts...)
		m.Mods = append(m.Mods, NewSystem(cfg, d, modApp, bo...))
	}
	m.wireLink()
	return m
}

// NewMachineChecked is NewMachine returning validation errors instead of
// panicking, mirroring NewSystemChecked.
func NewMachineChecked(cfg Config, d Design, app workload.Source, opts ...BuildOption) (m *Machine, err error) {
	if err := validateJob(cfg, d, app); err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			m = nil
			err = &health.SimError{
				Design: d.withDefaults(cfg.WithDefaults()).Name(),
				App:    safeLabel(app),
				Cause:  r,
				Stack:  string(debug.Stack()),
			}
		}
	}()
	return NewMachine(cfg, d, app, opts...), nil
}

// wireLink builds the inter-module crossbar pair and the LinkClk pumps
// moving traffic between each module's per-channel link ports and the link.
//
// LinkClk namespace: module m's pumps and the ports delivered to it use
// group m; the two crossbar hubs get Modules and Modules+1.
func (m *Machine) wireLink() {
	d := m.D
	n := d.Modules
	mk := func(name string) *noc.Crossbar {
		return noc.New(noc.Params{
			Name: name, Ins: n, Outs: n,
			LinkBytes: d.LinkGBps, RouterLat: d.LinkLat,
		})
	}
	req := mk("link-req")
	rep := mk("link-rep")
	m.LinkReq, m.LinkRep = req, rep
	m.LinkClk.RegisterGrouped(req, n)
	m.LinkClk.RegisterGrouped(rep, n+1)
	req.AttachPortsGrouped(m.LinkClk, func(in int) int { return in })
	rep.AttachPortsGrouped(m.LinkClk, func(in int) int { return in })

	inject := func(x *noc.Crossbar, a *mem.Access, src, dst, flits int) bool {
		p := m.Pool.GetPacket()
		p.Acc, p.Src, p.Dst, p.Flits = a, src, dst, flits
		if !x.Inject(p) {
			m.Pool.PutPacket(p)
			return false
		}
		return true
	}
	// sinkPort delivers a link packet's access into the channel-indexed port
	// slice of its destination module, routing by the line's home geometry
	// (identical in every module).
	sinkPort := func(ports []*sim.Port[*mem.Access]) noc.Endpoint {
		amap := m.Mods[0].AMap
		return noc.EndpointFunc(func(p *mem.Packet) bool {
			ch := amap.Channel(amap.L2Slice(p.Acc.Line))
			if !ports[ch].Push(p.Acc) {
				return false
			}
			m.Pool.PutPacket(p)
			return true
		})
	}

	for i, mod := range m.Mods {
		i, mod := i, mod
		amap := mod.AMap
		// Requests: remote-homed misses leave module i toward the home
		// module's DRAM. Whole lines matter on the memory side, so requests
		// carry full-store payloads like NoC#2 (reqFlits fullStore).
		m.LinkClk.RegisterGrouped(&multiPump{
			srcs: mod.linkMissOut,
			rate: pumpRate,
			try: func(a *mem.Access) bool {
				return inject(req, a, i, amap.HomeModule(a.Line), reqFlits(a, d.LinkGBps, true))
			},
		}, i)
		req.SetEndpoint(i, sinkPort(mod.linkReqIn))
		// Fills: home DRAM data returns to the origin module. Full lines,
		// never trimmed (both ends are memory-side).
		m.LinkClk.RegisterGrouped(&multiPump{
			srcs: mod.linkRepOut,
			rate: pumpRate,
			try: func(a *mem.Access) bool {
				return inject(rep, a, i, a.Module, replyFlits(a, d.LinkGBps, false, false))
			},
		}, i)
		rep.SetEndpoint(i, sinkPort(mod.linkFillIn))
		for ch := range mod.linkReqIn {
			mod.linkReqIn[ch].AttachGrouped(m.LinkClk, i)
			mod.linkFillIn[ch].AttachGrouped(m.LinkClk, i)
		}
	}

	req.RegisterMetrics(m.Reg, "link", "link", false)
	rep.RegisterMetrics(m.Reg, "link", "link", true)
	m.Reg.Counter("chaos-link", "link", "chaos_faults_total",
		"fault occurrences on the inter-module link injectors",
		func() int64 {
			var v int64
			for _, in := range m.linkInjectors {
				v += in.Fired()
			}
			return v
		})
}

// SetFastPath toggles the engine's quiescence fast path for this machine.
func (m *Machine) SetFastPath(on bool) { m.Eng.SetFastPath(on) }

// SetStridedPlacement switches shard placement back to the legacy strided
// partition, as System.SetStridedPlacement does.
func (m *Machine) SetStridedPlacement(on bool) { m.Eng.SetStridedPlacement(on) }

// SetShards sets the shard count, as System.SetShards does.
func (m *Machine) SetShards(n int) {
	if n == ShardsAuto {
		n = runtime.GOMAXPROCS(0)
		if w := m.Eng.MaxClockComponents(); w < n {
			n = w
		}
		if n < 1 {
			n = 1
		}
	}
	m.Eng.SetShards(n)
	m.Pool.SetConcurrent(n > 1)
}

// Shards reports the configured shard count (1 = serial).
func (m *Machine) Shards() int { return m.Eng.Shards() }

// InstallChaos arms deterministic fault injection on every component of
// every module plus the inter-module link crossbars. Component indices are
// module-global (one shared counter per subsystem kind, walked in module
// order, link last), so the fault schedule is a pure function of the spec
// and the machine shape.
func (m *Machine) InstallChaos(spec *chaos.Spec) error {
	if spec == nil {
		return nil
	}
	if m.chaosSpec != nil {
		return fmt.Errorf("gpu: chaos already installed")
	}
	if m.CoreClk.Now() != 0 {
		return fmt.Errorf("gpu: chaos installed after cycle 0 (now %d)", m.CoreClk.Now())
	}
	norm, err := spec.Normalized()
	if err != nil {
		return err
	}
	m.chaosSpec = norm
	next := make(map[chaos.Kind]int)
	for _, mod := range m.Mods {
		mod.chaosSpec = norm
		mod.armChaos(norm, next)
	}
	for _, x := range []*noc.Crossbar{m.LinkReq, m.LinkRep} {
		in := chaos.New(norm, chaos.KindNoC, next[chaos.KindNoC], x.P.Name)
		next[chaos.KindNoC]++
		m.linkInjectors = append(m.linkInjectors, in)
		x.Chaos = in
	}
	return nil
}

// ChaosEvents returns the merged recorded fault schedule across all modules
// and the link injectors.
func (m *Machine) ChaosEvents() []chaos.Event {
	var out []chaos.Event
	for _, mod := range m.Mods {
		out = append(out, mod.ChaosEvents()...)
	}
	for _, in := range m.linkInjectors {
		out = append(out, in.Events()...)
	}
	chaos.SortEvents(out)
	return out
}

// FaultsInjected returns the total fault occurrences across every module and
// the link injectors.
func (m *Machine) FaultsInjected() int64 {
	var v int64
	for _, mod := range m.Mods {
		v += mod.FaultsInjected()
	}
	for _, in := range m.linkInjectors {
		v += in.Fired()
	}
	return v
}

// InstallTelemetry attaches one live metrics collector over the machine's
// shared registry (every module's series plus the link's stream in one
// batch), and optionally arms one power-capping governor per module — each
// regulating its own cores against its own metered zones, as independent
// GPUs would.
func (m *Machine) InstallTelemetry(opts metrics.Options, cap *power.CapSpec) error {
	if m.collector != nil {
		return fmt.Errorf("gpu: telemetry already installed")
	}
	if cap != nil {
		spec := *cap
		if err := spec.Validate(); err != nil {
			return err
		}
		for _, mod := range m.Mods {
			mod.gov = &governor{meter: mod.meter, cap: spec, cores: mod.Cores}
		}
	}
	col := metrics.NewCollector(m.Reg, m.D.Name(), m.App.Label(), opts.Every, opts.Sink)
	mhz := m.CoreClk.FreqMHz()
	col.SetTimeFunc(func(cyc int64) int64 { return cyc * 1_000_000 / mhz })
	var lastPs int64
	col.OnSample(func(cycle int64) {
		ps := cycle * 1_000_000 / mhz
		dt := float64(ps-lastPs) * 1e-12
		lastPs = ps
		for _, mod := range m.Mods {
			mod.meter.Advance(dt)
		}
	})
	if cap != nil {
		col.OnSample(func(int64) {
			for _, mod := range m.Mods {
				mod.gov.step()
			}
		})
	}
	col.SetSharder(m.CoreClk)
	m.collector = col
	m.CoreClk.Register(col)
	m.CoreClk.OnBarrier(col.Fold)
	return nil
}

// flushTelemetry emits the final batch, if a collector is attached.
func (m *Machine) flushTelemetry() {
	if m.collector != nil {
		m.collector.Flush(m.CoreClk.Now())
	}
}

// NewMonitor builds the health monitor spanning every module plus the link:
// each module contributes its per-subsystem probes (named "m<i>.cores" and
// so on), and the link gets its own progress probe, invariant checkers, and
// queue watchers.
func (m *Machine) NewMonitor() *health.Monitor {
	mon := health.NewMonitor()
	for _, mod := range m.Mods {
		mod.contributeMonitor(mon)
	}
	link := []*noc.Crossbar{m.LinkReq, m.LinkRep}
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
			for _, mod := range m.Mods {
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
	watch := func(component, label string, q sim.QueueState) {
		w := sim.NewQueueWatcher(component, label, q)
		mon.AddObserver(w.Observe)
		mon.AddChecker(w)
	}
	for i, mod := range m.Mods {
		comp := fmt.Sprintf("m%d.link", i)
		for ch := range mod.linkMissOut {
			watch(comp, fmt.Sprintf("miss-%d", ch), mod.linkMissOut[ch])
			watch(comp, fmt.Sprintf("reqin-%d", ch), mod.linkReqIn[ch])
			watch(comp, fmt.Sprintf("repout-%d", ch), mod.linkRepOut[ch])
			watch(comp, fmt.Sprintf("fill-%d", ch), mod.linkFillIn[ch])
		}
	}
	return mon
}

// healthClocks snapshots the engine's clock domains for a dump.
func (m *Machine) healthClocks() []health.ClockState {
	var out []health.ClockState
	for _, c := range m.Eng.Clocks() {
		out = append(out, health.ClockState{Name: c.Name(), FreqMHz: c.FreqMHz(), Cycle: c.Now()})
	}
	return out
}

// Run executes the machine's warmup and measurement windows.
func (m *Machine) Run() Results {
	cfg := m.Cfg
	m.Eng.RunUntil(m.CoreClk, cfg.WarmupCycles)
	m.resetStats()
	start := m.CoreClk.Now()
	m.Eng.RunUntil(m.CoreClk, cfg.WarmupCycles+cfg.MeasureCycles)
	cycles := m.CoreClk.Now() - start
	m.flushTelemetry()
	return m.collect(cycles)
}

// RunChecked executes the machine under the health layer, mirroring
// System.RunChecked: watchdog, deadline, invariant audit, panic recovery.
func (m *Machine) RunChecked(opts HealthOptions) (r Results, err error) {
	defer func() {
		if p := recover(); p != nil {
			r = Results{}
			err = &health.SimError{
				Design: m.D.Name(),
				App:    m.App.Label(),
				Cycle:  m.CoreClk.Now(),
				Cause:  p,
				Stack:  string(debug.Stack()),
			}
		}
	}()
	if opts.LegacyTick {
		m.Eng.SetFastPath(false)
	}
	if opts.StridedPlacement {
		m.SetStridedPlacement(true)
	}
	if opts.Shards > 1 || opts.Shards == ShardsAuto {
		m.SetShards(opts.Shards)
	}
	if opts.Chaos != nil {
		if err := m.InstallChaos(opts.Chaos); err != nil {
			return Results{}, err
		}
	}
	if opts.Metrics != nil || opts.PowerCap != nil {
		var mo metrics.Options
		if opts.Metrics != nil {
			mo = *opts.Metrics
		}
		if err := m.InstallTelemetry(mo, opts.PowerCap); err != nil {
			return Results{}, err
		}
	}
	mon := m.NewMonitor()
	ro := sim.RunOptions{
		Monitor:     mon,
		StallWindow: opts.StallWindow,
		CheckEvery:  opts.CheckEvery,
		Ctx:         opts.Ctx,
	}
	start := time.Now()
	remaining := func() time.Duration {
		if opts.Deadline <= 0 {
			return 0
		}
		if rem := opts.Deadline - time.Since(start); rem > 0 {
			return rem
		}
		return time.Nanosecond // already expired: trip at the next check
	}
	cfg := m.Cfg
	ro.Deadline = remaining()
	if err := m.Eng.RunUntilChecked(m.CoreClk, cfg.WarmupCycles, ro); err != nil {
		return Results{}, err
	}
	m.resetStats()
	measureStart := m.CoreClk.Now()
	ro.Deadline = remaining()
	if err := m.Eng.RunUntilChecked(m.CoreClk, cfg.WarmupCycles+cfg.MeasureCycles, ro); err != nil {
		return Results{}, err
	}
	cycles := m.CoreClk.Now() - measureStart
	m.flushTelemetry()
	if v := health.Fatal(mon.CheckInvariants()); len(v) > 0 {
		dump := mon.BuildDump("audit", m.CoreClk.Name(), m.CoreClk.Now(), m.healthClocks())
		return Results{}, &health.InvariantError{RefCycle: m.CoreClk.Now(), Dump: dump}
	}
	return m.collect(cycles), nil
}

// resetStats zeroes every module's stats plus the link crossbars' (the same
// warmup boundary reset System.resetStats performs).
func (m *Machine) resetStats() {
	for _, mod := range m.Mods {
		mod.resetStats()
	}
	for _, x := range []*noc.Crossbar{m.LinkReq, m.LinkRep} {
		x.Stat = noc.Stats{
			InFlits:  make([]int64, x.P.Ins),
			OutFlits: make([]int64, x.P.Outs),
		}
	}
}

// collect builds machine-level Results. The registry is shared, so module 0's
// collect already aggregates every module's series; on top of that the
// machine overrides the labels (module tenants have their own), merges the
// replication trackers, and fills the module-specific figures.
func (m *Machine) collect(cycles sim.Cycle) Results {
	r := m.Mods[0].collect(cycles)
	r.Design = m.D.Name()
	r.App = m.App.Label()

	var repSum, repCount int64
	for _, mod := range m.Mods {
		repSum += mod.Tracker.SampledReplicaSum
		repCount += mod.Tracker.SampledReplicaCount
	}
	r.MeanReplicas = 0
	if repCount > 0 {
		r.MeanReplicas = float64(repSum) / float64(repCount)
	}

	r.Modules = m.D.Modules
	for _, mod := range m.Mods {
		var issued int64
		for _, c := range mod.Cores {
			issued += c.Stat.Issued
		}
		r.ModuleIPC = append(r.ModuleIPC, float64(issued)/float64(cycles))
	}
	r.LinkFlits = m.Reg.Total("link_flits_total")
	r.MaxLinkUtil = m.Reg.GaugeMax("link_reply_link_util_max")
	return r
}

package gpu

import (
	"errors"

	"dcl1sim/internal/core"
	"dcl1sim/internal/metrics"
	"dcl1sim/internal/power"
)

// registerMetrics registers the module's series in the machine's registry:
// each of its components' own, then the module's, and builds its power-zone
// meter over them. It runs unconditionally at the end of newModule:
// registration is closures over counters the components already maintain, so
// an unobserved registry costs nothing per cycle, and building it always keeps
// the series set — and therefore Results, which is a view over the registry —
// identical whether or not telemetry is attached. Modules share the one
// registry; component names carry the "m<i>." prefix in a multi-module
// machine, so the series sets stay disjoint.
func (mod *Module) registerMetrics() {
	r := mod.sys.Reg
	mod.parts.registerMetrics(r)

	r.Gauge(mod.cname("tracker"), "core", "l1_replicas_mean",
		"mean copies per cached line, sampled at line install",
		func() float64 { return mod.Tracker.MeanReplicas() })
	r.Counter(mod.cname("chaos"), "core", "chaos_faults_total",
		"fault occurrences across all chaos injectors",
		func() int64 { return fired(mod.injectors) })

	mod.meter = power.NewMeter(mod.buildZones())
	for _, name := range mod.meter.Zones() {
		zone := name
		r.Gauge(mod.cname("zone-"+zone), "core", "power_zone_watts",
			"metered zone power over the last sample window",
			func() float64 { return mod.meter.Watts(zone) })
	}
	r.Gauge(mod.cname("governor"), "core", "power_throttle_level",
		"governor duty-cycle level (eighths of issue slots withheld)",
		func() float64 { return float64(mod.ThrottleLevel()) })
	r.Gauge(mod.cname("governor"), "core", "power_effective_core_mhz",
		"core frequency equivalent of the current duty cycle",
		func() float64 { return float64(coreMHz) * float64(8-mod.ThrottleLevel()) / 8 })
	r.Gauge(mod.cname("governor"), "core", "power_cap_budget_watts",
		"armed power budget (0 when uncapped)",
		func() float64 {
			if mod.gov == nil {
				return 0
			}
			return mod.gov.cap.BudgetWatts
		})
}

// registerMetrics registers the series of each of the owner's components and
// records them as the owner's.
func (p *parts) registerMetrics(r *metrics.Registry) {
	first := r.Len()
	for _, c := range p.comps {
		c.RegisterMetrics(r)
	}
	p.series = r.Series()[first:r.Len():r.Len()]
}

// zoneEnergy is the one table of what the power zones meter: the families a
// zone counts, each with its zone and the energy of one event. The link's
// families are not in it, so link traffic stays out of every module's zones.
var zoneEnergy = map[string]struct {
	zone   string
	energy float64
}{
	"core_instructions_total": {power.ZoneGPU, power.EnergyPerInstruction},
	"l1_accesses_total":       {power.ZoneGPU, power.EnergyPerL1Access},
	"noc1_flits_total":        {power.ZoneGPU, power.EnergyPerNoc1Flit},
	"l2_accesses_total":       {power.ZoneMemory, power.EnergyPerL2Access},
	"dram_reads_total":        {power.ZoneMemory, power.EnergyPerDramAccess},
	"dram_writes_total":       {power.ZoneMemory, power.EnergyPerDramAccess},
	"noc2_flits_total":        {power.ZoneMemory, power.EnergyPerNoc2Flit},
}

// buildZones assembles the NVML-style power zones over the module's own
// series, one term per series of a family in zoneEnergy: the compute side
// (cores, L1/DC-L1 nodes, NoC#1), the memory side (L2, DRAM, NoC#2, the mesh
// among them) and the whole module. A term reads its series' counter, whose
// closure captures a stats-field address that survives the warmup reset (it
// zeroes structs in place).
func (mod *Module) buildZones() []power.Zone {
	terms := map[string][]power.ZoneTerm{}
	for _, s := range mod.series {
		if e, ok := zoneEnergy[s.Name]; ok {
			terms[e.zone] = append(terms[e.zone], power.ZoneTerm{Energy: e.energy, Count: s.Int})
		}
	}
	gpuTerms, memTerms := terms[power.ZoneGPU], terms[power.ZoneMemory]

	gpuStatic := float64(len(mod.Cores))*power.StaticCoreWatts +
		float64(len(mod.Nodes))*power.StaticL1Watts
	memStatic := float64(len(mod.L2))*power.StaticL2Watts +
		float64(len(mod.Drams))*power.StaticChannelWatts
	moduleTerms := append(append([]power.ZoneTerm{}, gpuTerms...), memTerms...)
	return []power.Zone{
		{Name: power.ZoneGPU, Static: gpuStatic, Terms: gpuTerms},
		{Name: power.ZoneMemory, Static: memStatic, Terms: memTerms},
		{Name: power.ZoneModule, Static: gpuStatic + memStatic + power.StaticModuleWatts, Terms: moduleTerms},
	}
}

// governor is the power-capping control loop: at every sample point (after
// the meter closes its window) it compares the governed zone's watts against
// the budget and moves the core duty-cycle throttle one step at a time —
// up when over budget, down when comfortably under (capReleaseFraction
// hysteresis so the level doesn't flap around the budget). It runs only in
// barrier context, so every core sees a new throttle level on the same edge.
type governor struct {
	meter *power.Meter
	cap   power.CapSpec
	cores []*core.Core
	level int
}

// capReleaseFraction is the hysteresis band: the governor backs off a level
// only once the zone drops below this fraction of the budget.
const capReleaseFraction = 0.9

func (g *governor) step() {
	w := g.meter.Watts(g.cap.Zone)
	switch {
	case w > g.cap.BudgetWatts && g.level < g.cap.MaxLevel:
		g.level++
	case w < g.cap.BudgetWatts*capReleaseFraction && g.level > 0:
		g.level--
	default:
		return
	}
	for _, c := range g.cores {
		c.SetThrottle(g.level)
	}
}

// InstallTelemetry attaches live metrics collection (and optionally one
// power-capping governor per module, each regulating its own cores against
// its own metered zones) to this machine. It must be called after NewSystem
// and before the run starts. The collector registers on the core clock as a
// sleeper whose next-work cycle is the next sample point, so the sample grid
// — exact multiples of opts.Every — is identical in fast-path and legacy-tick
// execution; the registry walk itself happens in a core-clock barrier task,
// after the edge's port commits.
//
// With a nil opts.Sink nothing is snapshotted, but sample-point hooks still
// run: a cap works without an observer.
func (s *System) InstallTelemetry(opts metrics.Options, cap *power.CapSpec) error {
	if s.collector != nil {
		return errors.New("gpu: telemetry already installed")
	}
	if cap != nil {
		spec := *cap
		if err := spec.Validate(); err != nil {
			return err
		}
		for _, mod := range s.Mods {
			mod.gov = &governor{meter: mod.meter, cap: spec, cores: mod.Cores}
		}
	}
	col := metrics.NewCollector(s.Reg, s.D.Name(), s.App.Label(), opts.Every, opts.Sink)
	mhz := s.CoreClk.FreqMHz()
	col.SetTimeFunc(func(cyc int64) int64 { return cyc * 1_000_000 / mhz })
	// A sample reads counters the engine compensates lazily for sleeping
	// components (cycle totals behind utilizations, stall counts): bring
	// them up to date first.
	col.OnSample(func(int64) { s.Eng.Settle() })
	var lastPs int64
	col.OnSample(func(cycle int64) {
		ps := cycle * 1_000_000 / mhz
		dt := float64(ps-lastPs) * 1e-12
		lastPs = ps
		for _, mod := range s.Mods {
			mod.meter.Advance(dt)
		}
	})
	if cap != nil {
		col.OnSample(func(int64) {
			for _, mod := range s.Mods {
				mod.gov.step()
			}
		})
	}
	s.collector = col
	s.CoreClk.Register(col)
	s.CoreClk.OnBarrier(col.Fold)
	return nil
}

// flushTelemetry emits the final batch, if a collector is attached.
func (s *System) flushTelemetry() {
	if s.collector != nil {
		s.collector.Flush(s.CoreClk.Now())
	}
}

// ThrottleLevel reports the module governor's current duty-cycle level (0
// when uncapped or never throttled).
func (mod *Module) ThrottleLevel() int {
	if mod.gov == nil {
		return 0
	}
	return mod.gov.level
}

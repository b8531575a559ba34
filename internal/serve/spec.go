// Package serve hosts deterministic sweep simulations as a long-running
// multi-tenant service: tenants POST a sweep spec (the same point grid the
// CLI tools walk), get a job ID, and stream per-point results as they land.
//
// The package's contract is that the service layer never bends the model:
// for a fixed spec, every result it serves — fresh, deduped from another
// tenant's identical point, cached across a restart, or completed on a
// crash-recovery pass — is byte-identical to a cold dcl1.Run of the same
// point. Robustness is layered on top of that invariant, never at its
// expense: bounded queues with admission control (429 + Retry-After), fair
// round-robin scheduling across tenants, per-tenant concurrency quotas, a
// persistent content-addressed result store, crash recovery from fsynced
// JSONL logs, per-job circuit breakers, and a graceful drain. See DESIGN.md
// §13.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"dcl1sim/internal/chaos"
	"dcl1sim/internal/experiments"
	"dcl1sim/internal/gpu"
	"dcl1sim/internal/power"
	"dcl1sim/internal/sim"
	"dcl1sim/internal/workload"
)

// Spec bounds, enforced by ParseSweepSpec regardless of server options: a
// single spec can never describe unbounded work or memory.
const (
	// MaxSpecDesigns caps the points of one sweep spec.
	MaxSpecDesigns = 1024
	// MaxSpecCycles caps the warmup and measurement windows, in core cycles.
	MaxSpecCycles = 100_000_000
	// MaxSpecMachineDim caps the explicit machine dimensions (cores, L2
	// slices, memory channels).
	MaxSpecMachineDim = 4096
	// maxSpecBytes caps the encoded spec itself (a design list at the point
	// cap fits comfortably).
	maxSpecBytes = 1 << 20
)

// SweepSpec is the one run description: one application run on a list of
// designs under one machine window. It is the flag target of every
// simulating command (cliflags.Spec), the wire form dcl1serve accepts over
// HTTP, and the input of every point's content key (Points), so a knob is
// added once, as a field here. How a point runs — watchdog, deadline,
// metrics — is gpu.HealthOptions, not part of the description. The zero
// windows select the simulator's defaults.
type SweepSpec struct {
	// App names the workload (workload.ByName).
	App string `json:"app"`
	// Designs lists the sweep points as the paper's design names
	// (gpu.ParseDesign); they are canonicalized on parse.
	Designs []string `json:"designs"`
	// Cycles and Warmup are the measurement and warmup windows in core
	// cycles (0 = the simulator's defaults).
	Cycles int64 `json:"cycles,omitempty"`
	Warmup int64 `json:"warmup,omitempty"`
	// Cores, L2Slices, and Channels optionally shrink (or grow) the machine
	// for quick-fidelity sweeps; zero selects the paper's 80-core GPU. They
	// are part of the point's content address, so differently sized machines
	// never share cache entries.
	Cores    int `json:"cores,omitempty"`
	L2Slices int `json:"l2_slices,omitempty"`
	Channels int `json:"channels,omitempty"`
	// Seed is the workload seed (0 = default).
	Seed uint64 `json:"seed,omitempty"`
	// Chaos selects a fault-injection preset: "", "light", or "heavy"
	// ("off" normalizes to ""). ChaosSeed selects the fault schedule and is
	// zeroed when chaos is off.
	Chaos     string `json:"chaos,omitempty"`
	ChaosSeed uint64 `json:"chaos_seed,omitempty"`
	// Modules assembles every design point into a multi-GPU machine of this
	// many linked modules (2..gpu.MaxModules; 0 or 1 = single module).
	// Designs that spell their own +M<n> suffix keep it — the spec value
	// only fills designs without one, so a single sweep can mix module
	// counts. LinkGBps and LinkLat tune the inter-module link of the
	// spec-assembled points (0 = simulator defaults); they require a
	// multi-module Modules value.
	Modules  int `json:"modules,omitempty"`
	LinkGBps int `json:"link_gbps,omitempty"`
	LinkLat  int `json:"link_lat,omitempty"`
	// PowerCap arms the power-capping governor with this budget in watts
	// for PowerZone (gpu, memory or module; "" = module). 0 is uncapped and
	// clears the zone, so an uncapped spec encodes without either field.
	PowerCap  float64 `json:"power_cap,omitempty"`
	PowerZone string  `json:"power_zone,omitempty"`
}

// ParseSweepSpec decodes and validates one sweep spec. It is the public
// admission point for untrusted input, so it rejects rather than panics:
// unknown fields, trailing garbage, unknown apps or designs, out-of-range
// windows, and oversized specs all come back as errors. The returned spec is
// normalized — design names canonical, chaos preset lower-cased with "off"
// folded to "" — so Encode∘ParseSweepSpec is a fixpoint (FuzzParseSweepSpec
// pins this).
func ParseSweepSpec(data []byte) (SweepSpec, error) {
	var s SweepSpec
	if len(data) > maxSpecBytes {
		return s, fmt.Errorf("serve: spec exceeds %d bytes", maxSpecBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return SweepSpec{}, fmt.Errorf("serve: bad spec: %w", err)
	}
	if dec.More() {
		return SweepSpec{}, fmt.Errorf("serve: trailing data after spec")
	}
	if err := s.normalize(); err != nil {
		return SweepSpec{}, err
	}
	return s, nil
}

// normalize validates the spec in place and rewrites it to canonical form.
func (s *SweepSpec) normalize() error {
	if s.App == "" {
		return fmt.Errorf("serve: spec missing app")
	}
	if _, ok := workload.ByName(s.App); !ok {
		return fmt.Errorf("serve: unknown app %q", s.App)
	}
	if len(s.Designs) == 0 {
		return fmt.Errorf("serve: spec has no designs")
	}
	if len(s.Designs) > MaxSpecDesigns {
		return fmt.Errorf("serve: %d designs exceed the %d-point spec cap", len(s.Designs), MaxSpecDesigns)
	}
	for i, name := range s.Designs {
		d, err := gpu.ParseDesign(name)
		if err != nil {
			return fmt.Errorf("serve: design %d: %w", i, err)
		}
		s.Designs[i] = d.Name()
	}
	if s.Cycles < 0 || s.Cycles > MaxSpecCycles {
		return fmt.Errorf("serve: cycles %d outside [0, %d]", s.Cycles, MaxSpecCycles)
	}
	if s.Warmup < 0 || s.Warmup > MaxSpecCycles {
		return fmt.Errorf("serve: warmup %d outside [0, %d]", s.Warmup, MaxSpecCycles)
	}
	for _, dim := range []struct {
		name string
		v    int
	}{{"cores", s.Cores}, {"l2_slices", s.L2Slices}, {"channels", s.Channels}} {
		if dim.v < 0 || dim.v > MaxSpecMachineDim {
			return fmt.Errorf("serve: %s %d outside [0, %d]", dim.name, dim.v, MaxSpecMachineDim)
		}
	}
	if s.Modules == 1 {
		s.Modules = 0 // canonical single-module spelling
	}
	if s.Modules < 0 || s.Modules > gpu.MaxModules {
		return fmt.Errorf("serve: modules %d outside [0, %d]", s.Modules, gpu.MaxModules)
	}
	if s.LinkGBps < 0 || s.LinkGBps > gpu.MaxLinkGBps {
		return fmt.Errorf("serve: link_gbps %d outside [0, %d]", s.LinkGBps, gpu.MaxLinkGBps)
	}
	if s.LinkLat < 0 || s.LinkLat > gpu.MaxLinkLat {
		return fmt.Errorf("serve: link_lat %d outside [0, %d]", s.LinkLat, gpu.MaxLinkLat)
	}
	if (s.LinkGBps > 0 || s.LinkLat > 0) && s.Modules < 2 {
		return fmt.Errorf("serve: link_gbps/link_lat require modules >= 2")
	}
	cs, err := chaos.Preset(s.Chaos, s.ChaosSeed)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if cs == nil {
		s.Chaos, s.ChaosSeed = "", 0
	} else {
		s.Chaos = strings.ToLower(strings.TrimSpace(s.Chaos))
	}
	pc, err := s.capSpec()
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.PowerZone = ""
	if pc != nil {
		s.PowerZone = pc.Zone
	}
	return nil
}

// capSpec returns the validated governor spec, or nil when uncapped.
func (s SweepSpec) capSpec() (*power.CapSpec, error) {
	if s.PowerCap == 0 {
		return nil, nil
	}
	pc := power.CapSpec{Zone: s.PowerZone, BudgetWatts: s.PowerCap}
	if err := pc.Validate(); err != nil {
		return nil, err
	}
	return &pc, nil
}

// Encode renders the spec as canonical compact JSON. Parsing the result
// yields an equal spec (the Write∘Read fixpoint FuzzParseSweepSpec checks),
// which also makes encoded specs usable as identity inputs: equal sweeps
// encode to equal bytes.
func (s SweepSpec) Encode() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // plain value type: cannot happen
	}
	return b
}

// Single returns the one-point spec for design index i: the same spec with
// Designs reduced to that design. Expanding it yields the exact gpu.Job the
// full spec expands at i, so a leased point simulated by a farm worker is
// byte-identical to the same point run locally.
func (s SweepSpec) Single(i int) SweepSpec {
	c := s
	c.Designs = []string{s.Designs[i]}
	return c
}

// Config returns the machine configuration the spec selects.
func (s SweepSpec) Config() gpu.Config {
	return gpu.Config{
		Cores:         s.Cores,
		L2Slices:      s.L2Slices,
		Channels:      s.Channels,
		MeasureCycles: sim.Cycle(s.Cycles),
		WarmupCycles:  sim.Cycle(s.Warmup),
		Seed:          s.Seed,
	}
}

// Arm returns base with the spec's fault injection and power cap armed (nil
// when off): the two run options that change Results, and so enter every
// point's key. The spec must have been validated.
func (s SweepSpec) Arm(base gpu.HealthOptions) gpu.HealthOptions {
	h := base
	h.Chaos, _ = chaos.Preset(s.Chaos, s.ChaosSeed)
	h.PowerCap, _ = s.capSpec()
	return h
}

// Jobs expands the spec into one gpu.Job per design, in spec order. Designs
// that fail machine validation (e.g. a node count that does not divide the
// core count) are reported per-index in errs rather than failing the batch:
// the service degrades a bad point into its error slot exactly like a failed
// simulation.
func (s SweepSpec) Jobs() (jobs []gpu.Job, errs []error) {
	app, ok := workload.ByName(s.App)
	if !ok {
		panic(fmt.Sprintf("serve: Jobs on unvalidated spec: unknown app %q", s.App))
	}
	cfg := s.Config()
	jobs = make([]gpu.Job, len(s.Designs))
	errs = make([]error, len(s.Designs))
	for i, name := range s.Designs {
		d, err := gpu.ParseDesign(name)
		if err != nil {
			errs[i] = err
			continue
		}
		d = s.FillModules(d)
		if err := d.Validate(cfg); err != nil {
			errs[i] = err
			continue
		}
		jobs[i] = gpu.Job{Cfg: cfg, D: d, App: app}
	}
	return jobs, errs
}

// FillModules is the spec's module-fill rule: a design without its own
// +M<n> suffix is assembled from Modules linked modules over the spec's
// link, and a design that spells +M<n> keeps its own machine. Modules 0 (or
// 1) leaves every design single-module.
func (s SweepSpec) FillModules(d gpu.Design) gpu.Design {
	if s.Modules >= 2 && d.Modules == 0 {
		d.Modules = s.Modules
		d.LinkGBps = s.LinkGBps
		d.LinkLat = sim.Cycle(s.LinkLat)
	}
	return d
}

// Point is one resolved sweep point. Err is set, and Job and Key left zero,
// when the design fails machine validation.
type Point struct {
	Job gpu.Job
	// Key is the point's content address: experiments.PointKey over the job
	// and the chaos and power cap the point runs under. The resume journal,
	// the result store and the lease table all read it.
	Key string
	Err error
}

// Points resolves the spec into one keyed Point per design, in spec order.
// It is the one place a spec becomes keyed points: the service's admission
// and restart recovery, a farm worker, dcl1sim and dcl1explore all call it,
// and each key reads the chaos and cap Arm gives the options those points
// run under, so no caller can key or arm a point differently.
func (s SweepSpec) Points() []Point {
	h := s.Arm(gpu.HealthOptions{})
	jobs, errs := s.Jobs()
	pts := make([]Point, len(jobs))
	for i, j := range jobs {
		if pts[i].Err = errs[i]; pts[i].Err == nil {
			pts[i].Job = j
			pts[i].Key = experiments.PointKey(j, h.Chaos, h.PowerCap)
		}
	}
	return pts
}

// ExploreSpec returns base with its designs replaced by the canonical
// dcl1explore point grid: the baseline, the aggregation axis (Pr80..Pr10),
// and the sharing-granularity axis (Sh40 clustered at Z ∈ {1,5,10,20}), with
// 2x-NoC#1 boost variants when boost is set. dcl1explore builds its jobs
// from this spec and can emit it with -spec-out, so a sweep POSTed to
// dcl1serve is guaranteed to name the same points the CLI walks.
func ExploreSpec(base SweepSpec, boost bool) SweepSpec {
	designs := []string{"Baseline", "Pr80", "Pr40", "Pr20", "Pr10"}
	for _, z := range []int{1, 5, 10, 20} {
		name := "Sh40"
		if z > 1 {
			name = fmt.Sprintf("Sh40+C%d", z)
		}
		designs = append(designs, name)
		if boost {
			designs = append(designs, name+"+Boost")
		}
	}
	base.Designs = designs
	return base
}

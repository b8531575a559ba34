package gpu

import (
	"context"
	"errors"
	"runtime/debug"
	"time"

	"dcl1sim/internal/chaos"
	"dcl1sim/internal/health"
	"dcl1sim/internal/metrics"
	"dcl1sim/internal/noc"
	"dcl1sim/internal/power"
	"dcl1sim/internal/sim"
	"dcl1sim/internal/workload"
)

// HealthOptions configures the watchdog and auditing of a checked run.
type HealthOptions struct {
	// StallWindow is the deadlock window in core cycles: no probe progress
	// for this long while components are busy aborts the run. 0 selects
	// sim.DefaultStallWindow; negative disables deadlock detection.
	StallWindow sim.Cycle
	// CheckEvery is the probe sampling period; 0 derives it from StallWindow.
	CheckEvery sim.Cycle
	// Deadline bounds the wall-clock time of the whole run (warmup plus
	// measurement); 0 means unbounded.
	Deadline time.Duration
	// Ctx, when non-nil, cancels the run between watchdog slices: the run
	// aborts with an error wrapping ctx.Err() (errors.Is-compatible with
	// context.Canceled / context.DeadlineExceeded).
	Ctx context.Context
	// LegacyTick disables the engine's quiescence fast path, ticking every
	// component on every clock edge as the original engine did. Results are
	// bit-identical either way; the knob exists for validation and
	// before/after benchmarking.
	LegacyTick bool
	// NoPool disables Access/Packet recycling, allocating every value fresh
	// as the original engine did. Results are bit-identical either way; the
	// knob exists for the equivalence tests and before/after benchmarking.
	NoPool bool
	// Shards spreads each clock edge's component ticks across this many
	// worker shards (<= 1 means serial, the default; ShardsAuto sizes the
	// worker set to the machine). The two-phase port contract makes results
	// bit-identical at every shard count; the knob trades goroutines for
	// wall-clock speed on saturated runs.
	Shards int
	// StridedPlacement switches shard placement back to the legacy strided
	// (i mod n) partition instead of the locality-aware plan. Results are
	// bit-identical either way; the knob exists for equivalence tests and
	// before/after benchmarks.
	StridedPlacement bool
	// Chaos, when non-nil, arms deterministic fault injection on every
	// component before the run starts (see InstallChaos and the chaos
	// package). The fault schedule is a pure function of the spec, so a
	// chaotic run is just as replayable and shard-invariant as a clean one.
	Chaos *chaos.Spec
	// Metrics, when non-nil, attaches live metrics collection: the registry
	// is snapshotted every Metrics.Every core cycles (on exact multiples,
	// identical in every tick mode and at every shard count) and each batch
	// is handed to Metrics.Sink. See InstallTelemetry.
	Metrics *metrics.Options
	// PowerCap, when non-nil, arms the power-capping governor: at each
	// metrics sample point the named zone's metered watts are compared
	// against the budget and the core duty-cycle throttle moves one step.
	// A cap works with or without a Metrics sink.
	PowerCap *power.CapSpec
}

// ErrNilApp is returned by the checked constructors for a job with no
// workload source — what the zero Job beside a sweep-expansion error holds.
var ErrNilApp = errors.New("gpu: nil workload source")

// validateJob is the up-front check of the checked constructors.
func validateJob(cfg Config, d Design, app workload.Source) error {
	if app == nil {
		return ErrNilApp
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	return d.Validate(cfg)
}

// NewSystemChecked is NewSystem returning validation errors instead of
// panicking: configuration and topology problems come back as plain errors,
// and any residual construction panic is wrapped in a *health.SimError.
func NewSystemChecked(cfg Config, d Design, app workload.Source, opts ...BuildOption) (s *System, err error) {
	if err := validateJob(cfg, d, app); err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			s = nil
			err = &health.SimError{
				Design: d.withDefaults(cfg.WithDefaults()).Name(),
				App:    safeLabel(app),
				Cause:  r,
				Stack:  string(debug.Stack()),
			}
		}
	}()
	return NewSystem(cfg, d, app, opts...), nil
}

// NewMonitor builds the health monitor for this system: one aggregate
// progress probe per subsystem (cores, L1/DC-L1 nodes, L2, NoC, DRAM), every
// component's invariant checker and dump contributor, and head-age watchers
// on the DC-L1 bridge queues and L2 ingress queues.
func (s *System) NewMonitor() *health.Monitor {
	m := health.NewMonitor()
	s.contributeMonitor(m)
	return m
}

// contributeMonitor adds this system's probes, checkers, watchers, and dump
// contributors to an existing monitor. NewMonitor wraps it for a standalone
// system; a multi-GPU Machine folds every module into one monitor (probe
// names carry the module prefix, so the subsystems stay distinguishable).
func (s *System) contributeMonitor(m *health.Monitor) {
	m.AddProbe(health.Probe{
		Name: s.cname("cores"),
		Sample: func() int64 {
			var v int64
			for _, c := range s.Cores {
				v += c.Stat.Issued + c.Stat.Transactions
			}
			return v
		},
		Busy: func() bool {
			for _, c := range s.Cores {
				if !c.Done() {
					return true
				}
			}
			return false
		},
	})
	m.AddProbe(health.Probe{
		Name: s.cname("l1-nodes"),
		Sample: func() int64 {
			var v int64
			for _, n := range s.Nodes {
				v += n.Ctrl.Stat.Accesses + n.Stat.BypassRequests + n.Stat.BypassReplies
			}
			return v
		},
		Busy: func() bool {
			for _, n := range s.Nodes {
				if n.Pending() > 0 {
					return true
				}
			}
			return false
		},
	})
	m.AddProbe(health.Probe{
		Name: s.cname("l2"),
		Sample: func() int64 {
			var v int64
			for _, l2 := range s.L2 {
				v += l2.Stat.Accesses
			}
			return v
		},
		Busy: func() bool {
			for i, l2 := range s.L2 {
				if l2.Pending() > 0 || s.l2in[i].Len() > 0 {
					return true
				}
			}
			return false
		},
	})
	m.AddProbe(health.Probe{
		Name: s.cname("noc"),
		Sample: func() int64 {
			var v int64
			for _, x := range s.crossbars() {
				v += x.Stat.FlitsMoved
			}
			if s.MeshReq != nil {
				v += s.MeshReq.Stat.FlitHops + s.MeshRep.Stat.FlitHops
			}
			return v
		},
		Busy: func() bool {
			for _, x := range s.crossbars() {
				if x.Pending() > 0 {
					return true
				}
			}
			if s.MeshReq != nil && (s.MeshReq.Pending() > 0 || s.MeshRep.Pending() > 0) {
				return true
			}
			return false
		},
	})
	m.AddProbe(health.Probe{
		Name: s.cname("dram"),
		Sample: func() int64 {
			var v int64
			for _, dc := range s.Drams {
				v += dc.Stat.Reads + dc.Stat.Writes
			}
			return v
		},
		Busy: func() bool {
			for _, dc := range s.Drams {
				if dc.Pending() > 0 || dc.Out.Len() > 0 {
					return true
				}
			}
			return false
		},
	})

	watch := func(component, label string, q sim.QueueState) {
		w := sim.NewQueueWatcher(component, label, q)
		m.AddObserver(w.Observe)
		m.AddChecker(w)
	}
	for _, c := range s.Cores {
		m.AddChecker(c)
		m.AddDumper(c.DumpHealth)
	}
	for _, n := range s.Nodes {
		m.AddChecker(n)
		m.AddDumper(n.DumpHealth)
		name := n.Ctrl.P.Name
		watch(name, "Q1", n.Q1)
		watch(name, "Q2", n.Q2)
		watch(name, "Q3", n.Q3)
		watch(name, "Q4", n.Q4)
	}
	for i, l2 := range s.L2 {
		m.AddChecker(l2)
		m.AddDumper(l2.DumpHealth)
		watch(l2.P.Name, "in", s.l2in[i])
	}
	for _, dc := range s.Drams {
		m.AddChecker(dc)
		m.AddDumper(dc.DumpHealth)
	}
	for _, x := range s.crossbars() {
		m.AddChecker(x)
		m.AddDumper(x.DumpHealth)
	}
	if s.MeshReq != nil {
		m.AddChecker(s.MeshReq)
		m.AddDumper(s.MeshReq.DumpHealth)
		m.AddChecker(s.MeshRep)
		m.AddDumper(s.MeshRep.DumpHealth)
	}
}

// crossbars returns every crossbar of the design, NoC#1 then NoC#2.
func (s *System) crossbars() []*noc.Crossbar {
	var out []*noc.Crossbar
	for _, group := range [][]*noc.Crossbar{s.Noc1Req, s.Noc1Rep, s.Noc2Req, s.Noc2Rep} {
		out = append(out, group...)
	}
	return out
}

// RunChecked executes this system's warmup and measurement windows under the
// health layer: a progress watchdog aborting wedged runs with a
// *health.DeadlockError, a wall-clock deadline, a final invariant audit, and
// panic recovery into *health.SimError. A healthy run produces Results
// bit-identical to Run — the watchdog observes between engine slices but
// never changes the order components tick in.
func (s *System) RunChecked(opts HealthOptions) (r Results, err error) {
	defer func() {
		if p := recover(); p != nil {
			r = Results{}
			err = &health.SimError{
				Design: s.D.Name(),
				App:    s.App.Label(),
				Cycle:  s.CoreClk.Now(),
				Cause:  p,
				Stack:  string(debug.Stack()),
			}
		}
	}()
	if opts.LegacyTick {
		s.Eng.SetFastPath(false)
	}
	if opts.StridedPlacement {
		s.SetStridedPlacement(true)
	}
	if opts.Shards > 1 || opts.Shards == ShardsAuto {
		s.SetShards(opts.Shards)
	}
	if opts.Chaos != nil {
		if err := s.InstallChaos(opts.Chaos); err != nil {
			return Results{}, err
		}
	}
	if opts.Metrics != nil || opts.PowerCap != nil {
		var mo metrics.Options
		if opts.Metrics != nil {
			mo = *opts.Metrics
		}
		if err := s.InstallTelemetry(mo, opts.PowerCap); err != nil {
			return Results{}, err
		}
	}
	mon := s.NewMonitor()
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
	cfg := s.Cfg
	ro.Deadline = remaining()
	if err := s.Eng.RunUntilChecked(s.CoreClk, cfg.WarmupCycles, ro); err != nil {
		return Results{}, err
	}
	s.resetStats()
	measureStart := s.CoreClk.Now()
	ro.Deadline = remaining()
	if err := s.Eng.RunUntilChecked(s.CoreClk, cfg.WarmupCycles+cfg.MeasureCycles, ro); err != nil {
		return Results{}, err
	}
	cycles := s.CoreClk.Now() - measureStart
	s.flushTelemetry()
	// Post-run audit. Age-heuristic findings (Warn) diagnose congestion and
	// belong in dumps, but a saturated-yet-progressing run — e.g. the
	// paper's pathological apps on the thrashing baseline — is a result,
	// not a failure. Only hard accounting/protocol violations fail the run.
	if v := health.Fatal(mon.CheckInvariants()); len(v) > 0 {
		dump := mon.BuildDump("audit", s.CoreClk.Name(), s.CoreClk.Now(), s.healthClocks())
		return Results{}, &health.InvariantError{RefCycle: s.CoreClk.Now(), Dump: dump}
	}
	return s.collect(cycles), nil
}

// healthClocks snapshots the engine's clock domains for a dump.
func (s *System) healthClocks() []health.ClockState {
	var out []health.ClockState
	for _, c := range s.Eng.Clocks() {
		out = append(out, health.ClockState{Name: c.Name(), FreqMHz: c.FreqMHz(), Cycle: c.Now()})
	}
	return out
}

// RunChecked builds the system and executes it under the health layer,
// returning typed errors (validation, deadlock, deadline, invariant audit,
// recovered panic) instead of hanging or crashing. Designs with Modules >= 2
// build a multi-GPU Machine; everything else builds the classic single-module
// System.
func RunChecked(cfg Config, d Design, app workload.Source, opts HealthOptions) (Results, error) {
	var bo []BuildOption
	if opts.NoPool {
		bo = append(bo, WithoutPool())
	}
	if d.Modules >= 2 {
		m, err := NewMachineChecked(cfg, d, app, bo...)
		if err != nil {
			return Results{}, err
		}
		return m.RunChecked(opts)
	}
	s, err := NewSystemChecked(cfg, d, app, bo...)
	if err != nil {
		return Results{}, err
	}
	return s.RunChecked(opts)
}

package gpu

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"dcl1sim/internal/chaos"
	"dcl1sim/internal/health"
	"dcl1sim/internal/metrics"
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
	// Shards is inert: no code reads it, and a run is the same run at any
	// value (TestBenchPinnedSurface). It is declared only because the frozen
	// bench/layers.go still names it; it goes with that file's "shards2"
	// variant in the next benchmark PR.
	Shards int
	// Chaos, when non-nil, arms deterministic fault injection on every
	// component before the run starts (see InstallChaos and the chaos
	// package). The fault schedule is a pure function of the spec, so a
	// chaotic run is just as replayable as a clean one.
	Chaos *chaos.Spec
	// Metrics, when non-nil, attaches live metrics collection: the registry
	// is snapshotted every Metrics.Every core cycles (on exact multiples,
	// identical with the fast path on or off) and each batch
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
		if p := recover(); p != nil {
			s, err = nil, simError(d.withDefaults(cfg.WithDefaults()), app, 0, p)
		}
	}()
	return NewSystem(cfg, d, app, opts...), nil
}

// simError wraps a recovered panic as the typed error of a checked build or
// run. Call it from the deferred function that recovered, so the stack still
// holds the panicking frames. The label is read through SafeLabel: the panic
// may have come from the workload source itself.
func simError(d Design, app workload.Source, cycle sim.Cycle, cause any) *health.SimError {
	return &health.SimError{
		Design: d.Name(),
		App:    SafeLabel(app),
		Cycle:  cycle,
		Cause:  cause,
		Stack:  string(debug.Stack()),
	}
}

// NewMonitor builds the health monitor for this machine: per module, one
// aggregate progress probe per subsystem (cores, L1/DC-L1 nodes, L2, NoC,
// DRAM; named "m<i>.cores" and so on in a multi-module machine), every
// component's invariant checker and dump contributor, and head-age watchers
// on the DC-L1 bridge queues and L2 ingress queues; plus the link's own
// probe, checkers and watchers when there is one.
func (s *System) NewMonitor() *health.Monitor {
	m := health.NewMonitor()
	for _, mod := range s.Mods {
		mod.contributeMonitor(m)
	}
	if s.LinkClk != nil {
		s.monitorLink(m)
	}
	return m
}

// watchQueue adds a head-age watcher on q to the monitor.
func watchQueue(m *health.Monitor, component, label string, q sim.QueueState) {
	w := sim.NewQueueWatcher(component, label, q)
	m.AddObserver(w.Observe)
	m.AddChecker(w)
}

// contributeMonitor adds this module's probes, checkers, watchers, and dump
// contributors to the machine's monitor (probe names carry the module prefix,
// so the subsystems stay distinguishable).
func (mod *Module) contributeMonitor(m *health.Monitor) {
	m.AddProbe(health.Probe{
		Name: mod.cname("cores"),
		Sample: func() int64 {
			var v int64
			for _, c := range mod.Cores {
				v += c.Stat.Issued + c.Stat.Transactions
			}
			return v
		},
		Busy: func() bool {
			for _, c := range mod.Cores {
				if !c.Done() {
					return true
				}
			}
			return false
		},
	})
	m.AddProbe(health.Probe{
		Name: mod.cname("l1-nodes"),
		Sample: func() int64 {
			var v int64
			for _, n := range mod.Nodes {
				v += n.Ctrl.Stat.Accesses + n.Stat.BypassRequests + n.Stat.BypassReplies
			}
			return v
		},
		Busy: func() bool {
			for _, n := range mod.Nodes {
				if n.Pending() > 0 {
					return true
				}
			}
			return false
		},
	})
	m.AddProbe(health.Probe{
		Name: mod.cname("l2"),
		Sample: func() int64 {
			var v int64
			for _, l2 := range mod.L2 {
				v += l2.Stat.Accesses
			}
			return v
		},
		Busy: func() bool {
			for i, l2 := range mod.L2 {
				if l2.Pending() > 0 || mod.l2in[i].Len() > 0 {
					return true
				}
			}
			return false
		},
	})
	var flits []func() int64
	for _, st := range mod.Stages {
		flits = append(flits, st.traffic()...)
	}
	m.AddProbe(health.Probe{
		Name:   mod.cname("noc"),
		Sample: sum(flits),
		Busy: func() bool {
			for _, st := range mod.Stages {
				if st.pending() {
					return true
				}
			}
			return false
		},
	})
	m.AddProbe(health.Probe{
		Name: mod.cname("dram"),
		Sample: func() int64 {
			var v int64
			for _, dc := range mod.Drams {
				v += dc.Stat.Reads + dc.Stat.Writes
			}
			return v
		},
		Busy: func() bool {
			for _, dc := range mod.Drams {
				if dc.Pending() > 0 || dc.Out.Len() > 0 {
					return true
				}
			}
			return false
		},
	})

	for _, c := range mod.Cores {
		m.AddChecker(c)
		m.AddDumper(c.DumpHealth)
	}
	for _, n := range mod.Nodes {
		// The bridge queues' watchers audit their accounting; the node
		// itself adds only its controller's invariants.
		m.AddChecker(n.Ctrl)
		m.AddDumper(n.DumpHealth)
		name := n.Ctrl.P.Name
		watchQueue(m, name, "Q1", n.Q1)
		watchQueue(m, name, "Q2", n.Q2)
		watchQueue(m, name, "Q3", n.Q3)
		watchQueue(m, name, "Q4", n.Q4)
	}
	for i, l2 := range mod.L2 {
		m.AddChecker(l2)
		m.AddDumper(l2.DumpHealth)
		watchQueue(m, l2.P.Name, "in", mod.l2in[i])
	}
	for _, dc := range mod.Drams {
		m.AddChecker(dc)
		m.AddDumper(dc.DumpHealth)
	}
	for _, st := range mod.Stages {
		st.watch(m)
	}
	m.AddChecker(directoryAudit{mod})
}

// directoryAudit checks the module's replication directory against its L1
// arrays: every line an array holds is recorded for that node, and the
// directory records no other copy.
type directoryAudit struct{ mod *Module }

func (a directoryAudit) CheckInvariants() []health.Violation {
	tr := a.mod.Tracker
	held, detail := 0, ""
	for id, nd := range a.mod.Nodes {
		nd.Ctrl.Arr.ForEach(func(line uint64) {
			held++
			if detail == "" && !tr.Holds(id, line) {
				detail = fmt.Sprintf("node %d holds line %d, which the directory does not record", id, line)
			}
		})
	}
	if c := tr.Copies(); detail == "" && c != held {
		detail = fmt.Sprintf("the directory records %d copies, the arrays hold %d", c, held)
	}
	if detail == "" {
		return nil
	}
	return []health.Violation{{Component: a.mod.cname("directory"), Rule: "directory-matches-arrays", Detail: detail}}
}

// RunChecked executes this machine's warmup and measurement windows under the
// health layer: a progress watchdog aborting wedged runs with a
// *health.DeadlockError, a wall-clock deadline, a final invariant audit, and
// panic recovery into *health.SimError. A healthy run produces Results
// bit-identical to Run — the watchdog observes between engine slices but
// never changes the order components tick in.
func (s *System) RunChecked(opts HealthOptions) (r Results, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, err = Results{}, simError(s.D, s.App, s.CoreClk.Now(), p)
		}
	}()
	if opts.LegacyTick {
		s.Eng.SetFastPath(false)
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
	cycles, err := s.measure(func(until sim.Cycle) error {
		ro.Deadline = remaining()
		return s.Eng.RunUntilChecked(s.CoreClk, until, ro)
	})
	if err != nil {
		return Results{}, err
	}
	// Post-run audit. Age-heuristic findings (Warn) diagnose congestion and
	// belong in dumps, but a saturated-yet-progressing run — e.g. the
	// paper's pathological apps on the thrashing baseline — is a result,
	// not a failure. Only hard accounting/protocol violations fail the run.
	if v := health.Fatal(mon.CheckInvariants()); len(v) > 0 {
		dump := mon.BuildDump("audit", s.CoreClk.Name(), s.CoreClk.Now(), s.Eng.ClockStates())
		return Results{}, &health.InvariantError{RefCycle: s.CoreClk.Now(), Dump: dump}
	}
	return s.collect(cycles), nil
}

// RunChecked builds the machine and executes it under the health layer,
// returning typed errors (validation, deadlock, deadline, invariant audit,
// recovered panic) instead of hanging or crashing.
func RunChecked(cfg Config, d Design, app workload.Source, opts HealthOptions) (Results, error) {
	s, err := NewSystemChecked(cfg, d, app)
	if err != nil {
		return Results{}, err
	}
	return s.RunChecked(opts)
}

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
	// sim.DefaultStallWindow; negative disables deadlock detection. The
	// watchdog samples the probes every StallWindow/8 cycles.
	StallWindow sim.Cycle
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

// component is what the machine asks of every model component the engine
// ticks: its work so far (Progress), what it still holds (Pending), to zero
// its statistics (ResetStats, which zeroes Progress too), its invariants, its
// dump, and to register its series under its own name (RegisterMetrics).
type component interface {
	sim.Ticker
	Progress() int64
	Pending() int
	ResetStats()
	health.Checker
	DumpHealth() (health.ComponentDump, bool)
	RegisterMetrics(*metrics.Registry)
}

// components returns the model components registered on clk, in tick order;
// the metrics collector, which is none, is passed over.
func components(clk *sim.Clock) []component {
	var out []component
	for i := 0; i < clk.Components(); i++ {
		if c, ok := clk.Component(i).(component); ok {
			out = append(out, c)
		}
	}
	return out
}

// NewMonitor builds the health monitor for this machine: one progress probe
// per clock domain with components, named after the clock, summing their
// Progress and busy while one of them has Pending work or a port attached to
// the clock holds a value; every component's invariant checker and dump;
// head-age watchers on the DC-L1 bridge queues, the L2 ingress queues and the
// link ports; and each module's directory audit.
func (s *System) NewMonitor() *health.Monitor {
	m := health.NewMonitor()
	for _, clk := range s.Eng.Clocks() {
		comps := components(clk)
		if len(comps) == 0 {
			continue
		}
		for _, c := range comps {
			m.AddChecker(c)
			m.AddDumper(c.DumpHealth)
		}
		m.AddProbe(health.Probe{
			Name: clk.Name(),
			Sample: func() int64 {
				var v int64
				for _, c := range comps {
					v += c.Progress()
				}
				return v
			},
			Busy: func() bool {
				for _, c := range comps {
					if c.Pending() > 0 {
						return true
					}
				}
				return clk.Holding()
			},
		})
	}
	for _, mod := range s.Mods {
		for _, n := range mod.Nodes {
			name := n.Ctrl.P.Name
			watchQueue(m, name, "Q1", n.Q1)
			watchQueue(m, name, "Q2", n.Q2)
			watchQueue(m, name, "Q3", n.Q3)
			watchQueue(m, name, "Q4", n.Q4)
		}
		for i, l2 := range mod.L2 {
			watchQueue(m, l2.P.Name, "in", mod.l2in[i])
		}
		link := mod.cname("link")
		for ch := range mod.linkMissOut {
			watchQueue(m, link, fmt.Sprintf("miss-%d", ch), mod.linkMissOut[ch])
			watchQueue(m, link, fmt.Sprintf("reqin-%d", ch), mod.linkReqIn[ch])
			watchQueue(m, link, fmt.Sprintf("repout-%d", ch), mod.linkRepOut[ch])
			watchQueue(m, link, fmt.Sprintf("fill-%d", ch), mod.linkFillIn[ch])
		}
		m.AddChecker(directoryAudit{mod})
	}
	return m
}

// watchQueue adds a head-age watcher on q to the monitor.
func watchQueue(m *health.Monitor, component, label string, q sim.QueueState) {
	w := sim.NewQueueWatcher(component, label, q)
	m.AddObserver(w.Observe)
	m.AddChecker(w)
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

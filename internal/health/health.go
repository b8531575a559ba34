// Package health is the simulation health layer: progress probes feeding the
// engine watchdog, invariant checkers implemented by the simulated
// components, structured diagnostic dumps, and the typed errors the
// error-returning run APIs surface instead of hangs or panics.
//
// The simulator's monitor holds one probe per clock domain, named after the
// clock: it sums the work counters of the components ticking on that clock,
// each of which reports its own, and is busy while one of them holds work or
// a port the clock commits holds a value.
//
// The package deliberately depends on nothing but the standard library:
// cycle counts travel as int64 (sim.Cycle is an alias of int64), so every
// layer of the simulator — including internal/sim itself — can import it
// without cycles.
//
// Error-vs-panic policy: panics are reserved for programmer errors (indexing
// bugs, impossible switch arms); everything a user or a workload can trigger
// — invalid configurations, wedged components, wall-clock overruns — is
// reported as one of the typed errors below.
package health

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Violation is one broken component invariant.
type Violation struct {
	Component string `json:"component"` // e.g. "l1-3", "noc2-req", "core-17"
	Rule      string `json:"rule"`      // e.g. "mshr-occupancy", "stuck-flit"
	Detail    string `json:"detail"`
	// Warn marks a heuristic finding (age-based staleness bounds) that
	// diagnoses congestion or starvation but can legitimately trip on
	// saturated-yet-progressing runs. Warnings appear in every dump; only
	// non-warning violations (accounting and protocol invariants) should
	// fail a run that is otherwise making progress.
	Warn bool `json:"warn,omitempty"`
}

func (v Violation) String() string {
	sev := ""
	if v.Warn {
		sev = " (warn)"
	}
	return fmt.Sprintf("%s: %s%s: %s", v.Component, v.Rule, sev, v.Detail)
}

// Fatal filters vs down to the violations that should fail a run: everything
// not marked Warn.
func Fatal(vs []Violation) []Violation {
	var out []Violation
	for _, v := range vs {
		if !v.Warn {
			out = append(out, v)
		}
	}
	return out
}

// Checker is implemented by components that can audit their own invariants.
// Implementations must be read-only: auditing a live simulation must not
// perturb its results.
type Checker interface {
	CheckInvariants() []Violation
}

// Probe samples one monotonic-ish activity counter (in the simulator, the sum
// of one clock domain's components' work counters: instructions issued,
// flits moved, DRAM accesses...). Progress is "the sampled value changed";
// the watchdog never assumes monotonicity, so statistics resets are harmless.
type Probe struct {
	Name string
	// Sample returns the current activity count. Must be cheap and read-only.
	Sample func() int64
	// Busy, when non-nil, reports whether the probed component still has
	// pending work. A system where no probe advances but nothing is busy is
	// quiescent (e.g. all wavefronts finished), not deadlocked.
	Busy func() bool
}

// Field is one key/value pair of a component's dumped state. Values are
// preformatted strings so dumps stay schema-free and deterministic.
type Field struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// ComponentDump is one component's state snapshot in a diagnostic dump.
type ComponentDump struct {
	Name   string  `json:"name"`
	Fields []Field `json:"fields"`
}

// F formats a dump field.
func F(key string, format string, args ...interface{}) Field {
	return Field{Key: key, Value: fmt.Sprintf(format, args...)}
}

// ClockState records one clock domain's position in a dump.
type ClockState struct {
	Name    string `json:"name"`
	FreqMHz int64  `json:"freq_mhz"`
	Cycle   int64  `json:"cycle"`
}

// ProbeState records one probe's value at dump time and whether it advanced
// within the stall window.
type ProbeState struct {
	Name     string `json:"name"`
	Value    int64  `json:"value"`
	Busy     bool   `json:"busy"`
	Advanced bool   `json:"advanced"`
}

// Dump is a structured diagnostic snapshot of a (possibly unhealthy)
// simulation: clock positions, probe values, per-component state, and any
// invariant violations found.
type Dump struct {
	Reason     string          `json:"reason"` // "deadlock", "deadline", "audit"
	RefClock   string          `json:"ref_clock"`
	RefCycle   int64           `json:"ref_cycle"`
	Clocks     []ClockState    `json:"clocks,omitempty"`
	Probes     []ProbeState    `json:"probes,omitempty"`
	Components []ComponentDump `json:"components,omitempty"`
	Violations []Violation     `json:"violations,omitempty"`
}

// Text renders the dump as indented text for terminals and logs.
func (d *Dump) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "health dump (%s) at %s cycle %d\n", d.Reason, d.RefClock, d.RefCycle)
	if len(d.Clocks) > 0 {
		b.WriteString("clocks:\n")
		for _, c := range d.Clocks {
			fmt.Fprintf(&b, "  %-8s %6d MHz  cycle %d\n", c.Name, c.FreqMHz, c.Cycle)
		}
	}
	if len(d.Probes) > 0 {
		b.WriteString("probes:\n")
		for _, p := range d.Probes {
			mark := ""
			if p.Busy && !p.Advanced {
				mark = "  <- stalled"
			}
			fmt.Fprintf(&b, "  %-16s value %-12d busy=%-5v advanced=%v%s\n",
				p.Name, p.Value, p.Busy, p.Advanced, mark)
		}
	}
	if len(d.Violations) > 0 {
		b.WriteString("violations:\n")
		for _, v := range d.Violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	if len(d.Components) > 0 {
		b.WriteString("components:\n")
		for _, c := range d.Components {
			fmt.Fprintf(&b, "  %s:\n", c.Name)
			for _, f := range c.Fields {
				fmt.Fprintf(&b, "    %-18s %s\n", f.Key, f.Value)
			}
		}
	}
	return b.String()
}

// JSON renders the dump as indented JSON.
func (d *Dump) JSON() ([]byte, error) { return json.MarshalIndent(d, "", "  ") }

// Stalled returns the names of probes that were busy but did not advance —
// the components the watchdog holds responsible for a deadlock.
func (d *Dump) Stalled() []string {
	var out []string
	for _, p := range d.Probes {
		if p.Busy && !p.Advanced {
			out = append(out, p.Name)
		}
	}
	return out
}

// DeadlockError reports that no progress probe advanced for a full stall
// window while at least one component still had pending work.
type DeadlockError struct {
	RefCycle int64 // reference-clock cycle at detection
	Window   int64 // stall window, in reference cycles
	Dump     *Dump
}

func (e *DeadlockError) Error() string {
	stalled := "unknown"
	if e.Dump != nil {
		if s := e.Dump.Stalled(); len(s) > 0 {
			stalled = strings.Join(s, ", ")
		}
	}
	return fmt.Sprintf("health: deadlock at cycle %d: no progress for %d cycles (stalled: %s)",
		e.RefCycle, e.Window, stalled)
}

// DeadlineError reports that the wall-clock deadline of a run expired before
// the simulation reached its target cycle.
type DeadlineError struct {
	RefCycle int64
	Deadline time.Duration
	Elapsed  time.Duration
	Dump     *Dump
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("health: wall-clock deadline %v exceeded (%v elapsed) at cycle %d",
		e.Deadline, e.Elapsed.Round(time.Millisecond), e.RefCycle)
}

// InvariantError reports invariant violations found by an audit of an
// otherwise completed run.
type InvariantError struct {
	RefCycle int64
	Dump     *Dump
}

func (e *InvariantError) Error() string {
	n := 0
	first := ""
	if e.Dump != nil {
		n = len(e.Dump.Violations)
		if n > 0 {
			first = e.Dump.Violations[0].String()
		}
	}
	return fmt.Sprintf("health: %d invariant violation(s) at cycle %d: %s", n, e.RefCycle, first)
}

// SimError wraps a panic recovered from inside a simulation run with the
// run's identity, so one corrupted run in a sweep degrades into an error
// instead of aborting the process.
type SimError struct {
	Design string
	App    string
	Cycle  int64
	Cause  interface{}
	Stack  string
}

func (e *SimError) Error() string {
	return fmt.Sprintf("health: internal fault running %s on %s at cycle %d: %v",
		e.App, e.Design, e.Cycle, e.Cause)
}

// DumpOf extracts the diagnostic dump carried by any of this package's
// errors, or nil.
func DumpOf(err error) *Dump {
	switch e := err.(type) {
	case *DeadlockError:
		return e.Dump
	case *DeadlineError:
		return e.Dump
	case *InvariantError:
		return e.Dump
	}
	return nil
}

// Monitor aggregates the health instrumentation of one simulated system:
// progress probes for the watchdog, invariant checkers, observers notified at
// every watchdog sampling point, and dumpers contributing component state to
// diagnostics.
type Monitor struct {
	probes    []Probe
	checkers  []Checker
	observers []func(refCycle int64)
	dumpers   []func() (ComponentDump, bool)

	last   []int64
	primed bool
}

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor { return &Monitor{} }

// AddProbe registers a progress probe.
func (m *Monitor) AddProbe(p Probe) {
	if p.Sample == nil {
		panic("health: probe without Sample")
	}
	m.probes = append(m.probes, p)
}

// AddChecker registers an invariant checker.
func (m *Monitor) AddChecker(c Checker) {
	if c == nil {
		return
	}
	m.checkers = append(m.checkers, c)
}

// AddObserver registers a callback invoked at every watchdog sampling point
// with the reference-clock cycle. Observers may update bookkeeping (e.g.
// queue head ages) but must not perturb the simulation.
func (m *Monitor) AddObserver(f func(refCycle int64)) {
	m.observers = append(m.observers, f)
}

// AddDumper registers a component state contributor. The bool return marks
// the dump as interesting; uninteresting (fully idle) components are omitted
// from diagnostics to keep dumps readable.
func (m *Monitor) AddDumper(f func() (ComponentDump, bool)) {
	m.dumpers = append(m.dumpers, f)
}

// Probes returns the number of registered probes.
func (m *Monitor) Probes() int { return len(m.probes) }

// Observe runs the registered observers for one watchdog sampling point.
func (m *Monitor) Observe(refCycle int64) {
	for _, f := range m.observers {
		f(refCycle)
	}
}

// Advanced samples every probe and reports whether any value changed since
// the previous call. The first call primes the baseline and reports true.
func (m *Monitor) Advanced() bool {
	if len(m.probes) == 0 {
		return true
	}
	if m.last == nil {
		m.last = make([]int64, len(m.probes))
	}
	changed := !m.primed
	m.primed = true
	for i, p := range m.probes {
		v := p.Sample()
		if v != m.last[i] {
			changed = true
			m.last[i] = v
		}
	}
	return changed
}

// AnyBusy reports whether any probe's component has pending work.
func (m *Monitor) AnyBusy() bool {
	for _, p := range m.probes {
		if p.Busy != nil && p.Busy() {
			return true
		}
	}
	return false
}

// CheckInvariants runs every registered checker and returns the combined
// violations, sorted by component then rule for deterministic output.
func (m *Monitor) CheckInvariants() []Violation {
	var out []Violation
	for _, c := range m.checkers {
		out = append(out, c.CheckInvariants()...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Component != out[j].Component {
			return out[i].Component < out[j].Component
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// BuildDump assembles a diagnostic dump: probe states (marked advanced or
// stalled), invariant violations, and every interesting component snapshot.
func (m *Monitor) BuildDump(reason, refClock string, refCycle int64, clocks []ClockState) *Dump {
	d := &Dump{
		Reason:   reason,
		RefClock: refClock,
		RefCycle: refCycle,
		Clocks:   clocks,
	}
	for i, p := range m.probes {
		ps := ProbeState{Name: p.Name, Value: p.Sample()}
		if p.Busy != nil {
			ps.Busy = p.Busy()
		}
		if m.primed && i < len(m.last) {
			ps.Advanced = ps.Value != m.last[i]
		}
		d.Probes = append(d.Probes, ps)
	}
	d.Violations = m.CheckInvariants()
	for _, f := range m.dumpers {
		if cd, interesting := f(); interesting {
			d.Components = append(d.Components, cd)
		}
	}
	return d
}

// Package chaos is a seeded, deterministic fault-injection layer for the
// simulator. It perturbs each subsystem strictly through that subsystem's
// existing interfaces — extra NoC serialization cycles and transient output
// jams (back-pressure), DRAM timing jitter and refresh storms, cache fill
// delays and forced MSHR-exhaustion windows, core issue stalls — plus two
// deliberately destructive drills (a permanent all-output NoC jam and a
// one-shot accounting corruption) that exist to prove the health layer's
// watchdog and invariant audit actually fire.
//
// Every injection decision is a pure function of (seed, component stream id,
// cycle): an Injector holds no mutable PRNG state, it hashes its stream base
// with the queried cycle. Because decisions are drawn only on a component's
// own Tick path — never from producer-side pushes, whose intra-edge order the
// port contract leaves unspecified — the fault schedule is bit-identical
// across the legacy and quiescence engines, across any re-ordering of
// component registration, and across replays of the same (seed, spec).
//
// Two further rules keep the quiescence fast path exact (see sim.Sleeper):
//
//   - Timing faults are only drawn when the component has affected work
//     (a grant to perturb, a fill to delay, a request to stall). A sleeping
//     component draws nothing, and a component with work never sleeps, so the
//     skipped ticks of the fast path never hide a draw the legacy engine
//     would have made.
//   - The one fault that must fire on an otherwise idle component — the
//     corruption drill at a fixed cycle — publishes its cycle through
//     CorruptWake so the component's NextWorkCycle can refuse to sleep past
//     it.
package chaos

import (
	"fmt"
	"sort"
	"strings"

	"dcl1sim/internal/sim"
)

// Kind partitions the PRNG stream space by subsystem, so e.g. core 3 and DRAM
// channel 3 never share a fault schedule.
type Kind uint8

// Subsystem kinds.
const (
	KindCore Kind = iota
	KindL1
	KindL2
	KindNoC
	KindDram
)

// DefaultWindowLen is the fault-window length used when Spec.WindowLen is 0.
// Windowed faults (jams, storms, pinches, issue stalls) are decided once per
// window and occupy its leading cycles.
const DefaultWindowLen sim.Cycle = 64

// Spec configures fault injection. The zero value injects nothing. All
// probabilities are per decision point: per window for the windowed faults,
// per affected event (grant, issue, fill) for the rest.
type Spec struct {
	// Seed selects the whole fault schedule. Two runs with equal (Seed, Spec)
	// produce byte-identical schedules; changing Seed reshuffles everything.
	Seed uint64
	// WindowLen is the length of the windowed faults' decision window in the
	// component's own clock cycles. 0 selects DefaultWindowLen. Windowed
	// durations are clamped to the window, so fault episodes never overlap.
	WindowLen sim.Cycle

	// NoC: per-grant extra serialization cycles (flit delay / duplication —
	// the packet holds its ports longer, exactly as more flits would), and
	// transient per-output jams that exert real back-pressure through the
	// staging queues, VOQs, and injection credits.
	FlitDelayProb float64
	FlitDelayMax  sim.Cycle // extra cycles per perturbed grant, 1..Max
	OutJamProb    float64   // per (output, window)
	OutJamLen     sim.Cycle // leading cycles of the window the output is dead

	// JamAllAfter, when positive, permanently jams every crossbar output from
	// that cycle (local clock) on — a credit-loss deadlock drill for the
	// watchdog. Destructive: never part of the presets.
	JamAllAfter sim.Cycle

	// DRAM: per-issue timing jitter on the data-ready cycle, and windowed
	// refresh storms during which the channel issues no commands (in-flight
	// bursts still complete and replies still drain).
	DramJitterProb float64
	DramJitterMax  sim.Cycle
	StormProb      float64 // per window
	StormLen       sim.Cycle

	// Cache: per-cycle fill-path stalls (fills and store ACKs wait in FillIn)
	// and windowed forced MSHR exhaustion (allocation refused; merges into
	// existing entries still succeed, as in a real full-MSHR episode).
	FillStallProb float64 // per cycle with fills waiting
	MSHRPinchProb float64 // per window
	MSHRPinchLen  sim.Cycle

	// CorruptAt, when positive, bumps each cache controller's In.PushCount at
	// that cycle (local clock) without a matching push — a state-corruption
	// drill that the queue-conservation invariant must catch. Destructive:
	// never part of the presets.
	CorruptAt sim.Cycle

	// Core: windowed issue freezes (the scheduler finds no ready wavefront).
	IssueStallProb float64 // per window
	IssueStallLen  sim.Cycle

	// Record keeps a per-injector event log for schedule comparison and
	// debugging (see Injector.Events / FormatEvents). Off by default: long
	// runs with high fault rates record many events.
	Record bool
}

// Validate reports whether the spec is well-formed.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"FlitDelayProb", s.FlitDelayProb}, {"OutJamProb", s.OutJamProb},
		{"DramJitterProb", s.DramJitterProb}, {"StormProb", s.StormProb},
		{"FillStallProb", s.FillStallProb}, {"MSHRPinchProb", s.MSHRPinchProb},
		{"IssueStallProb", s.IssueStallProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("chaos: %s = %v outside [0, 1]", p.name, p.v)
		}
	}
	for _, c := range []struct {
		name string
		v    sim.Cycle
	}{
		{"WindowLen", s.WindowLen}, {"FlitDelayMax", s.FlitDelayMax},
		{"OutJamLen", s.OutJamLen}, {"JamAllAfter", s.JamAllAfter},
		{"DramJitterMax", s.DramJitterMax}, {"StormLen", s.StormLen},
		{"MSHRPinchLen", s.MSHRPinchLen}, {"CorruptAt", s.CorruptAt},
		{"IssueStallLen", s.IssueStallLen},
	} {
		if c.v < 0 {
			return fmt.Errorf("chaos: %s = %d is negative", c.name, c.v)
		}
	}
	return nil
}

// Normalized validates the spec and returns a copy with defaults applied and
// windowed durations clamped to the window.
func (s *Spec) Normalized() (*Spec, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := *s
	if n.WindowLen <= 0 {
		n.WindowLen = DefaultWindowLen
	}
	clamp := func(d sim.Cycle) sim.Cycle {
		if d > n.WindowLen {
			return n.WindowLen
		}
		return d
	}
	n.OutJamLen = clamp(n.OutJamLen)
	n.StormLen = clamp(n.StormLen)
	n.MSHRPinchLen = clamp(n.MSHRPinchLen)
	n.IssueStallLen = clamp(n.IssueStallLen)
	return &n, nil
}

// Enabled reports whether the spec can inject anything at all.
func (s *Spec) Enabled() bool {
	if s == nil {
		return false
	}
	return s.FlitDelayProb > 0 || s.OutJamProb > 0 || s.JamAllAfter > 0 ||
		s.DramJitterProb > 0 || s.StormProb > 0 ||
		s.FillStallProb > 0 || s.MSHRPinchProb > 0 || s.CorruptAt > 0 ||
		s.IssueStallProb > 0
}

// Light returns a mild all-timing-fault preset: every subsystem sees
// occasional perturbations, none severe enough to wedge a healthy design.
func Light(seed uint64) *Spec {
	return &Spec{
		Seed:          seed,
		FlitDelayProb: 0.02, FlitDelayMax: 3,
		OutJamProb: 0.02, OutJamLen: 16,
		DramJitterProb: 0.05, DramJitterMax: 8,
		StormProb: 0.01, StormLen: 32,
		FillStallProb: 0.02,
		MSHRPinchProb: 0.01, MSHRPinchLen: 16,
		IssueStallProb: 0.01, IssueStallLen: 8,
	}
}

// Heavy returns an aggressive all-timing-fault preset: long jams, frequent
// storms, deep MSHR pinches. Still only timing faults — a correct simulator
// slows down under it but must neither deadlock nor corrupt state.
func Heavy(seed uint64) *Spec {
	return &Spec{
		Seed:          seed,
		FlitDelayProb: 0.15, FlitDelayMax: 8,
		OutJamProb: 0.10, OutJamLen: 48,
		DramJitterProb: 0.20, DramJitterMax: 24,
		StormProb: 0.05, StormLen: 64,
		FillStallProb: 0.10,
		MSHRPinchProb: 0.08, MSHRPinchLen: 32,
		IssueStallProb: 0.05, IssueStallLen: 24,
	}
}

// Preset resolves a preset by name: "off" (or "") disables injection (nil
// spec), "light" and "heavy" select the corresponding preset.
func Preset(name string, seed uint64) (*Spec, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "off", "none":
		return nil, nil
	case "light":
		return Light(seed), nil
	case "heavy":
		return Heavy(seed), nil
	default:
		return nil, fmt.Errorf("chaos: unknown preset %q (off, light, heavy)", name)
	}
}

// Event is one recorded fault occurrence: a window activation for windowed
// faults, one perturbation for per-event faults.
type Event struct {
	Comp  string    // component display name
	Fault string    // fault kind, e.g. "out-jam", "dram-jitter"
	Cycle sim.Cycle // local clock cycle (window start for windowed faults)
	Arg   int64     // fault-specific detail (output port, extra cycles, ...)
}

// SortEvents orders events canonically: by cycle, then component, fault, arg.
func SortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Comp != b.Comp {
			return a.Comp < b.Comp
		}
		if a.Fault != b.Fault {
			return a.Fault < b.Fault
		}
		return a.Arg < b.Arg
	})
}

// FormatEvents renders a canonical one-line-per-event schedule (sorted copy),
// so two schedules can be compared byte for byte.
func FormatEvents(evs []Event) string {
	sorted := make([]Event, len(evs))
	copy(sorted, evs)
	SortEvents(sorted)
	var b strings.Builder
	for _, e := range sorted {
		fmt.Fprintf(&b, "%d %s %s %d\n", e.Cycle, e.Comp, e.Fault, e.Arg)
	}
	return b.String()
}

// Salt constants separate the fault types within one component's stream.
// Per-output faults fold the output index in on top.
const (
	saltGrant   uint64 = 0xa24baed4963ee407
	saltGrantN  uint64 = 0x9fb21c651e98df25
	saltJam     uint64 = 0x8ebc6af09c88c6e3
	saltJitter  uint64 = 0x589965cc75374cc3
	saltJitterN uint64 = 0x1d8e4e27c47d124f
	saltStorm   uint64 = 0xeb44accab455d165
	saltFill    uint64 = 0x6c9c07a4a0d64bc4
	saltPinch   uint64 = 0x2ffcbc1ad2cd3f91
	saltIssue   uint64 = 0xd985e3ca2a2cc0a5
	outStride   uint64 = 0x9e3779b97f4a7c15
)

// mix is the 64-bit finalizer used as the stream hash (splitmix64/murmur3
// style): full avalanche, so consecutive cycles draw independent-looking
// values from the same stream base.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Injector evaluates one component's fault schedule. All methods are safe on
// a nil receiver (no faults), so components carry an optional *Injector field
// and call it unconditionally. The only mutable state is the event log and
// the fired counter — decisions themselves are pure functions of the queried
// cycle, which is what makes the schedule replay-invariant.
//
// An Injector belongs to exactly one component and must only be called from
// that component's Tick path, never from producer-side pushes.
type Injector struct {
	spec  *Spec
	name  string
	base  uint64
	fired int64
	evs   []Event
	seen  map[uint64]struct{} // dedup for windowed / one-shot events
}

// New builds the injector for one component. spec must already be normalized
// (see Spec.Normalized); kind and id identify the component's PRNG stream and
// name is its display name in the event log.
func New(spec *Spec, kind Kind, id int, name string) *Injector {
	if spec == nil {
		return nil
	}
	base := mix(spec.Seed*0x9e3779b97f4a7c15 ^
		mix(uint64(kind+1)*0xbf58476d1ce4e5b9^uint64(id+1)*0x94d049bb133111eb))
	return &Injector{spec: spec, name: name, base: base, seen: map[uint64]struct{}{}}
}

// draw returns the stream's hash value for (cycle, salt) in [0, 2^64).
func (i *Injector) draw(now sim.Cycle, salt uint64) uint64 {
	return mix(i.base ^ mix(uint64(now)*0x9e3779b97f4a7c15^salt))
}

// hit reports whether the (cycle, salt) draw lands under probability p.
func (i *Injector) hit(p float64, now sim.Cycle, salt uint64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(i.draw(now, salt)>>11)/(1<<53) < p
}

// note counts one fault occurrence and, under Record, logs it.
func (i *Injector) note(fault string, cycle sim.Cycle, arg int64) {
	i.fired++
	if i.spec.Record {
		i.evs = append(i.evs, Event{Comp: i.name, Fault: fault, Cycle: cycle, Arg: arg})
	}
}

// noteOnce is note deduplicated on key: windowed faults are queried every
// cycle of their window (and jams from two call sites), but count once.
func (i *Injector) noteOnce(key uint64, fault string, cycle sim.Cycle, arg int64) {
	if _, ok := i.seen[key]; ok {
		return
	}
	i.seen[key] = struct{}{}
	i.note(fault, cycle, arg)
}

// windowActive decides a windowed fault: the (window, salt) draw activates
// the window, and the fault occupies its first length cycles.
func (i *Injector) windowActive(now sim.Cycle, p float64, length sim.Cycle, salt uint64, fault string, arg int64) bool {
	if p <= 0 || length <= 0 {
		return false
	}
	start := now - now%i.spec.WindowLen
	if now-start >= length {
		return false
	}
	if !i.hit(p, start, salt) {
		return false
	}
	i.noteOnce(salt^uint64(start)*0xbf58476d1ce4e5b9, fault, start, arg)
	return true
}

// GrantPerturb returns extra serialization cycles for a crossbar grant on
// output out (0 when unperturbed): the packet holds its input and output
// ports longer, exactly as a duplicated or delayed flit would.
func (i *Injector) GrantPerturb(now sim.Cycle, out int, flits int) sim.Cycle {
	if i == nil || i.spec.FlitDelayProb <= 0 || i.spec.FlitDelayMax <= 0 {
		return 0
	}
	salt := saltGrant + uint64(out)*outStride
	if !i.hit(i.spec.FlitDelayProb, now, salt) {
		return 0
	}
	extra := 1 + sim.Cycle(i.draw(now, saltGrantN+uint64(out)*outStride)%uint64(i.spec.FlitDelayMax))
	i.note("flit-delay", now, int64(extra))
	return extra
}

// OutputJammed reports whether crossbar output out accepts no grant and
// delivers no staged packet this cycle — either a transient per-window jam or
// the permanent JamAllAfter drill.
func (i *Injector) OutputJammed(now sim.Cycle, out int) bool {
	if i == nil {
		return false
	}
	if i.spec.JamAllAfter > 0 && now >= i.spec.JamAllAfter {
		i.noteOnce(^uint64(out), "jam-all", now, int64(out))
		return true
	}
	return i.windowActive(now, i.spec.OutJamProb, i.spec.OutJamLen,
		saltJam+uint64(out)*outStride, "out-jam", int64(out))
}

// DramJitter returns extra cycles added to an issued command's data-ready
// time (0 when unperturbed).
func (i *Injector) DramJitter(now sim.Cycle) sim.Cycle {
	if i == nil || i.spec.DramJitterProb <= 0 || i.spec.DramJitterMax <= 0 {
		return 0
	}
	if !i.hit(i.spec.DramJitterProb, now, saltJitter) {
		return 0
	}
	extra := 1 + sim.Cycle(i.draw(now, saltJitterN)%uint64(i.spec.DramJitterMax))
	i.note("dram-jitter", now, int64(extra))
	return extra
}

// RefreshStorm reports whether the channel issues no commands this cycle.
func (i *Injector) RefreshStorm(now sim.Cycle) bool {
	if i == nil {
		return false
	}
	return i.windowActive(now, i.spec.StormProb, i.spec.StormLen, saltStorm, "refresh-storm", 0)
}

// FillsBlocked reports whether the cache's fill path stalls this cycle.
func (i *Injector) FillsBlocked(now sim.Cycle) bool {
	if i == nil {
		return false
	}
	if !i.hit(i.spec.FillStallProb, now, saltFill) {
		return false
	}
	i.note("fill-stall", now, 0)
	return true
}

// MSHRPinched reports whether MSHR allocation is refused this cycle (forced
// exhaustion window). Merges into existing entries are unaffected.
func (i *Injector) MSHRPinched(now sim.Cycle) bool {
	if i == nil {
		return false
	}
	return i.windowActive(now, i.spec.MSHRPinchProb, i.spec.MSHRPinchLen, saltPinch, "mshr-pinch", 0)
}

// IssueStalled reports whether the core's issue stage freezes this cycle.
func (i *Injector) IssueStalled(now sim.Cycle) bool {
	if i == nil {
		return false
	}
	return i.windowActive(now, i.spec.IssueStallProb, i.spec.IssueStallLen, saltIssue, "issue-stall", 0)
}

// CorruptNow reports whether the corruption drill fires this cycle. The
// component ticks a given cycle at most once, so the drill fires at most once
// per component.
func (i *Injector) CorruptNow(now sim.Cycle) bool {
	if i == nil || i.spec.CorruptAt <= 0 || now != i.spec.CorruptAt {
		return false
	}
	i.note("corrupt", now, 0)
	return true
}

// CorruptWake returns the pending corruption cycle so the component's
// NextWorkCycle can refuse to sleep past it (ok is false once the drill is
// behind now or disabled).
func (i *Injector) CorruptWake(now sim.Cycle) (sim.Cycle, bool) {
	if i == nil || i.spec.CorruptAt <= 0 || now > i.spec.CorruptAt {
		return 0, false
	}
	return i.spec.CorruptAt, true
}

// Fired returns the number of fault occurrences so far (windowed faults count
// once per activated window).
func (i *Injector) Fired() int64 {
	if i == nil {
		return 0
	}
	return i.fired
}

// Events returns the recorded event log (empty unless Spec.Record).
func (i *Injector) Events() []Event {
	if i == nil {
		return nil
	}
	return i.evs
}

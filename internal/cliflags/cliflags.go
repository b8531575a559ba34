// Package cliflags defines the flag groups shared by the dcl1 commands, so
// every binary spells the common knobs the same way: one canonical name,
// usage string, and folding rule per flag, in one place.
//
// Each group is a plain struct whose Register method installs its flags on a
// FlagSet using the struct's current field values as the defaults — a command
// that wants a different default (dcl1serve retries once by default, the
// sweep CLIs do not) seeds the field before calling Register. Apply methods
// fold a parsed group into dcl1.HealthOptions, the one options struct every
// run path accepts.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dcl1sim"
	"dcl1sim/internal/experiments"
	"dcl1sim/internal/metrics"
	"dcl1sim/internal/power"
	"dcl1sim/internal/serve"
	"dcl1sim/internal/sim"
)

// Health is the watchdog group every simulating command carries:
// -deadline and -stall-window.
type Health struct {
	Deadline    time.Duration
	StallWindow int64
}

func (h *Health) Register(fs *flag.FlagSet) {
	fs.DurationVar(&h.Deadline, "deadline", h.Deadline,
		"wall-clock bound per simulation (0 = none)")
	fs.Int64Var(&h.StallWindow, "stall-window", h.StallWindow,
		"deadlock window in core cycles (0 = default, negative disables)")
}

func (h *Health) Apply(o *dcl1.HealthOptions) {
	o.Deadline = h.Deadline
	o.StallWindow = h.StallWindow
}

// Chaos is the fault-injection group: -chaos and -chaos-seed.
type Chaos struct {
	Preset string
	Seed   uint64
}

func (c *Chaos) Register(fs *flag.FlagSet) {
	if c.Seed == 0 {
		c.Seed = 1
	}
	fs.StringVar(&c.Preset, "chaos", c.Preset,
		"fault-injection preset: off, light, or heavy (deterministic per -chaos-seed)")
	fs.Uint64Var(&c.Seed, "chaos-seed", c.Seed,
		"fault-injection seed (with -chaos)")
}

// Apply resolves the preset into o.Chaos; an unset or "off" preset leaves o
// untouched.
func (c *Chaos) Apply(o *dcl1.HealthOptions) error {
	spec, err := dcl1.ChaosPreset(c.Preset, c.Seed)
	if err != nil {
		return err
	}
	if spec != nil {
		o.Chaos = spec
	}
	return nil
}

// Engine is the parallelism group: -workers spreads independent simulations
// across goroutines; each simulation runs on one.
type Engine struct {
	Workers int
}

func (e *Engine) Register(fs *flag.FlagSet) {
	fs.IntVar(&e.Workers, "workers", e.Workers,
		"simulate points across this many goroutines (0 = GOMAXPROCS; results are identical for any value)")
}

// Retry is the sweep-supervisor group: -retries and -point-deadline.
type Retry struct {
	Retries       int
	PointDeadline time.Duration
}

func (r *Retry) Register(fs *flag.FlagSet) {
	fs.IntVar(&r.Retries, "retries", r.Retries,
		"retry a simulation that overran its deadline up to this many times (capped exponential backoff)")
	fs.DurationVar(&r.PointDeadline, "point-deadline", r.PointDeadline,
		"wall-clock bound per sweep point, folded into -deadline (tighter wins; 0 = none)")
}

func (r *Retry) Policy() experiments.RetryPolicy {
	return experiments.RetryPolicy{Retries: r.Retries}
}

// Journal is the -resume group.
type Journal struct {
	Path string
}

func (j *Journal) Register(fs *flag.FlagSet) {
	fs.StringVar(&j.Path, "resume", j.Path,
		"journal completed simulations to this JSONL file and skip points already journaled there")
}

// Open opens the journal named by -resume, announcing on errw how many
// already-completed points will be skipped. Returns (nil, nil) when the flag
// is unset; the caller owns Close.
func (j *Journal) Open(errw io.Writer) (*experiments.Journal, error) {
	if j.Path == "" {
		return nil, nil
	}
	jn, err := experiments.OpenJournal(j.Path)
	if err != nil {
		return nil, err
	}
	if n := jn.Completed(); n > 0 && errw != nil {
		fmt.Fprintf(errw, "resume: %d completed point(s) in %s will be skipped\n", n, j.Path)
	}
	return jn, nil
}

// Multi is the multi-GPU group: -modules, -link-gbps, and -link-lat override
// the design's module assembly (see dcl1.Design.Modules and DESIGN.md §16).
// Zero values leave the parsed design untouched, so "+M4+G128" spelled inside
// -design and the flags compose: the flags win where set.
type Multi struct {
	Modules  int
	LinkGBps int
	LinkLat  int
}

func (m *Multi) Register(fs *flag.FlagSet) {
	fs.IntVar(&m.Modules, "modules", m.Modules,
		fmt.Sprintf("build this many linked GPU modules, 2..%d (0 = design's own count, 1 = single module)", dcl1.MaxModules))
	fs.IntVar(&m.LinkGBps, "link-gbps", m.LinkGBps,
		"inter-module link bandwidth in bytes per link cycle (0 = design default; needs 2+ modules)")
	fs.IntVar(&m.LinkLat, "link-lat", m.LinkLat,
		"inter-module link switch latency in link cycles (0 = design default; needs 2+ modules)")
}

// ApplyDesign folds the group into a parsed design. -modules 1 forces a
// single-module machine (clearing any +M suffix); link overrides require the
// resulting design to have 2+ modules.
func (m *Multi) ApplyDesign(d *dcl1.Design) error {
	switch {
	case m.Modules == 1:
		d.Modules = 0
	case m.Modules < 0 || m.Modules > dcl1.MaxModules:
		return fmt.Errorf("-modules %d: must be 1..%d", m.Modules, dcl1.MaxModules)
	case m.Modules >= 2:
		d.Modules = m.Modules
	}
	if m.LinkGBps < 0 {
		return fmt.Errorf("-link-gbps %d: must be positive", m.LinkGBps)
	}
	if m.LinkLat < 0 {
		return fmt.Errorf("-link-lat %d: must be positive", m.LinkLat)
	}
	if (m.LinkGBps > 0 || m.LinkLat > 0) && d.Modules < 2 {
		return fmt.Errorf("-link-gbps/-link-lat need a multi-module design (-modules 2..%d or +M in -design)", dcl1.MaxModules)
	}
	if m.LinkGBps > 0 {
		d.LinkGBps = m.LinkGBps
	}
	if m.LinkLat > 0 {
		d.LinkLat = sim.Cycle(m.LinkLat)
	}
	return nil
}

// Auth is the static bearer-token group shared by dcl1serve (which loads a
// whole tenant table) and dcl1worker (which presents one token).
type Auth struct {
	Tokens    string
	TokenFile string
}

func (a *Auth) Register(fs *flag.FlagSet) {
	fs.StringVar(&a.Tokens, "auth-tokens", a.Tokens,
		"require bearer-token auth on mutating endpoints: comma-separated tenant=token pairs (tokens visible in ps; prefer -auth-token-file)")
	fs.StringVar(&a.TokenFile, "auth-token-file", a.TokenFile,
		"require bearer-token auth: file of tenant=token lines (blank lines and #-comments ignored)")
}

// Load resolves the group into the tenant→token table (nil when auth is
// off). The two sources are mutually exclusive.
func (a *Auth) Load() (map[string]string, error) {
	switch {
	case a.Tokens != "" && a.TokenFile != "":
		return nil, fmt.Errorf("-auth-tokens and -auth-token-file are mutually exclusive")
	case a.Tokens != "":
		return serve.ParseAuthTokens(a.Tokens)
	case a.TokenFile != "":
		return serve.LoadAuthTokenFile(a.TokenFile)
	}
	return nil, nil
}

// Telemetry is the live-metrics group: -metrics-out and -metrics-every
// select registry sampling and its NDJSON destination, -power-cap and
// -power-zone arm the power-capping governor.
type Telemetry struct {
	Out      string
	Every    int64
	CapWatts float64
	CapZone  string
}

func (t *Telemetry) Register(fs *flag.FlagSet) {
	if t.CapZone == "" {
		t.CapZone = power.ZoneModule
	}
	t.RegisterEvery(fs)
	fs.StringVar(&t.Out, "metrics-out", t.Out,
		"stream live metric batches to this NDJSON file ('-' = stdout)")
	fs.Float64Var(&t.CapWatts, "power-cap", t.CapWatts,
		"power budget in watts for -power-zone; exceeding it throttles core issue (0 = uncapped)")
	fs.StringVar(&t.CapZone, "power-zone", t.CapZone,
		"power zone the -power-cap budget governs: gpu, memory, or module")
}

// RegisterEvery installs only -metrics-every, for commands that stream
// batches somewhere other than a file (dcl1serve serves them over HTTP).
func (t *Telemetry) RegisterEvery(fs *flag.FlagSet) {
	fs.Int64Var(&t.Every, "metrics-every", t.Every,
		fmt.Sprintf("sample the metric registry every this many core cycles (0 = %d when metrics are on)", metrics.DefaultEvery))
}

// Apply folds the telemetry flags into o, opening the -metrics-out sink when
// one is named. The returned closer flushes and closes the sink (a no-op when
// none was opened) and must run after the simulations finish.
func (t *Telemetry) Apply(o *dcl1.HealthOptions) (func() error, error) {
	closer := func() error { return nil }
	if t.CapWatts > 0 {
		cs := power.CapSpec{Zone: t.CapZone, BudgetWatts: t.CapWatts}
		if err := cs.Validate(); err != nil {
			return closer, err
		}
		o.PowerCap = &cs
	}
	if t.Out == "" && t.Every <= 0 {
		return closer, nil
	}
	mo := &metrics.Options{Every: t.Every}
	if t.Out != "" {
		var w io.WriteCloser = os.Stdout
		if t.Out != "-" {
			f, err := os.Create(t.Out)
			if err != nil {
				return closer, err
			}
			w = f
		}
		sink := metrics.NewNDJSONSink(w)
		mo.Sink = sink
		out := t.Out
		closer = func() error {
			err := sink.Close()
			if out != "-" {
				if cerr := w.Close(); err == nil {
					err = cerr
				}
			}
			return err
		}
	}
	o.Metrics = mo
	return closer, nil
}

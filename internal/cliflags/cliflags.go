// Package cliflags defines the flag groups shared by the dcl1 commands, so
// every binary spells the common knobs the same way: one canonical name,
// usage string, and folding rule per flag, in one place.
//
// Each group is a plain struct whose Register method installs its flags on a
// FlagSet using the struct's current field values as the defaults — a command
// that wants a different default (dcl1serve retries once by default, the
// sweep CLIs do not) seeds the field before calling Register. Which point to
// run is the Spec group, resolved into a serve.SweepSpec; how to run it is
// the other groups, whose Apply methods fold them into dcl1.HealthOptions,
// the one options struct every run path accepts.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"dcl1sim"
	"dcl1sim/internal/experiments"
	"dcl1sim/internal/metrics"
	"dcl1sim/internal/power"
	"dcl1sim/internal/serve"
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

// Spec is the run-description group: the fields of one serve.SweepSpec under
// the commands' flag names. The sweep spec is also the wire form dcl1serve
// accepts and the input of every point's content key, so a knob is added
// once, as a spec field, and the flag, the JSON and the key all read it
// there.
type Spec struct {
	serve.SweepSpec
	// Design is -design: the one design of a single-point command. Resolve
	// makes it the spec's design list.
	Design string
}

// Register installs the named subset of the spec's flags — app, design,
// cores, cycles, warmup, seed, chaos (-chaos and -chaos-seed), modules
// (-modules, -link-gbps and -link-lat) and power (-power-cap and
// -power-zone) — each defaulting to its field's current value.
func (s *Spec) Register(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		switch name {
		case "app":
			fs.StringVar(&s.App, "app", s.App, "application name (dcl1apps lists them)")
		case "design":
			fs.StringVar(&s.Design, "design", s.Design,
				"design: Baseline, PrY, ShY, ShY+CZ[+Boost], CDXBar[+2xNoC[1]], SingleL1")
		case "cores":
			fs.IntVar(&s.Cores, "cores", s.Cores, "core count (0 = 80)")
		case "cycles":
			fs.Int64Var(&s.Cycles, "cycles", s.Cycles, "measurement window in core cycles (0 = 40000)")
		case "warmup":
			fs.Int64Var(&s.Warmup, "warmup", s.Warmup, "warmup window in core cycles (0 = 10000)")
		case "seed":
			fs.Uint64Var(&s.Seed, "seed", s.Seed, "workload seed")
		case "chaos":
			if s.ChaosSeed == 0 {
				s.ChaosSeed = 1
			}
			fs.StringVar(&s.Chaos, "chaos", s.Chaos,
				"fault-injection preset: off, light, or heavy (deterministic per -chaos-seed)")
			fs.Uint64Var(&s.ChaosSeed, "chaos-seed", s.ChaosSeed,
				"fault-injection seed (with -chaos)")
		case "modules":
			fs.IntVar(&s.Modules, "modules", s.Modules,
				fmt.Sprintf("build each design without its own +M<n> from this many linked GPU modules, 2..%d (0 or 1 = one module)", dcl1.MaxModules))
			fs.IntVar(&s.LinkGBps, "link-gbps", s.LinkGBps,
				"inter-module link bandwidth in bytes per link cycle (0 = design default; needs -modules 2+)")
			fs.IntVar(&s.LinkLat, "link-lat", s.LinkLat,
				"inter-module link switch latency in link cycles (0 = design default; needs -modules 2+)")
		case "power":
			if s.PowerZone == "" {
				s.PowerZone = power.ZoneModule
			}
			fs.Float64Var(&s.PowerCap, "power-cap", s.PowerCap,
				"power budget in watts for -power-zone; exceeding it throttles core issue (0 = uncapped)")
			fs.StringVar(&s.PowerZone, "power-zone", s.PowerZone,
				"power zone the -power-cap budget governs: gpu, memory, or module")
		default:
			panic("cliflags: unknown spec flag " + name)
		}
	}
}

// Resolve returns the normalized spec the parsed flags describe. It
// validates through serve.ParseSweepSpec, so a flag is rejected exactly as
// the same field POSTed to dcl1serve, with the same message. A command that
// picks its own apps and designs (dcl1bench) sets neither: its spec is
// validated around a stand-in point and returned without one.
func (s *Spec) Resolve() (serve.SweepSpec, error) {
	spec := s.SweepSpec
	if s.Design != "" {
		spec.Designs = []string{s.Design}
	}
	if math.IsNaN(spec.PowerCap) || math.IsInf(spec.PowerCap, 0) {
		return serve.SweepSpec{}, fmt.Errorf("serve: power cap %g is not a number of watts", spec.PowerCap)
	}
	standIn := spec.App == "" && len(spec.Designs) == 0
	if standIn {
		spec.App, spec.Designs = "T-AlexNet", []string{"Baseline"}
	}
	out, err := serve.ParseSweepSpec(spec.Encode())
	if standIn {
		out.App, out.Designs = "", nil
	}
	return out, err
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
// select registry sampling and its NDJSON destination.
type Telemetry struct {
	Out   string
	Every int64
}

func (t *Telemetry) Register(fs *flag.FlagSet) {
	t.RegisterEvery(fs)
	fs.StringVar(&t.Out, "metrics-out", t.Out,
		"stream live metric batches to this NDJSON file ('-' = stdout)")
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

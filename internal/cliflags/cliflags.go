// Package cliflags defines the flag groups shared by the dcl1 commands, so
// every binary spells the common knobs the same way: one canonical name,
// usage string, and folding rule per flag, in one place.
//
// Each group is a plain struct whose Register method installs the named
// subset of its flags on a FlagSet, using the struct's current field values
// as the defaults — a command that wants a different default (dcl1serve
// retries once by default, the sweep CLIs do not) seeds the field before
// calling Register. Which points to run is the Spec group, resolved into a
// serve.SweepSpec; how every point runs is the Run group, resolved into the
// one experiments.Supervisor the points run under.
package cliflags

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dcl1sim/internal/experiments"
	"dcl1sim/internal/farm"
	"dcl1sim/internal/gpu"
	"dcl1sim/internal/health"
	"dcl1sim/internal/metrics"
	"dcl1sim/internal/power"
	"dcl1sim/internal/serve"
)

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
				"design: Baseline, PrY, ShY, CDXBar, SingleL1 or MeshBase, then +CZ (ShY), +Boost (PrY, ShY), +2xNoC1 (CDXBar), +2xNoC (CDXBar, Baseline), +kxL1, +PerfectL1, +kxFlit, +PFn, +WB, +Mn (+Gn, +Latn, +Priv)")
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
				fmt.Sprintf("build each design without its own +M<n> from this many linked GPU modules, 2..%d (0 or 1 = one module)", gpu.MaxModules))
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

// Run is the supervision group: how every point of a command runs. Register
// installs the named subset of its flags — health (-deadline and
// -stall-window), workers, retries, resume, metrics (-metrics-every and
// -metrics-out), metrics-every alone (dcl1serve streams batches over HTTP)
// and health-dump — each defaulting to its field's current value. A
// simulating command resolves the parsed flags with Supervisor and ends
// with Finish; dcl1serve and dcl1worker fill their options with
// ServeOptions and FarmOptions, whose lease workers build the same
// Supervisor per point.
type Run struct {
	Deadline     time.Duration
	StallWindow  int64
	Workers      int
	Retries      int
	Resume       string
	MetricsOut   string
	MetricsEvery int64
	HealthDump   string
	// Verbose sends one progress line per point to stderr. Each command
	// registers its own -v, in its own words.
	Verbose bool

	// sweeps is set when -resume is registered: the command runs a sweep
	// and an interrupt ends with the hint to resume it.
	sweeps    bool
	stderr    io.Writer // nil = os.Stderr
	ctx       context.Context
	stop      context.CancelFunc
	closeSink func() error
	journal   *experiments.Journal
}

// Register installs the named subset of the group's flags.
func (r *Run) Register(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		switch name {
		case "health":
			fs.DurationVar(&r.Deadline, "deadline", r.Deadline,
				"wall-clock bound per simulation (0 = none)")
			fs.Int64Var(&r.StallWindow, "stall-window", r.StallWindow,
				"deadlock window in core cycles (0 = default, negative disables)")
		case "workers":
			fs.IntVar(&r.Workers, "workers", r.Workers,
				"simulate points across this many goroutines (0 = GOMAXPROCS; results are identical for any value)")
		case "retries":
			fs.IntVar(&r.Retries, "retries", r.Retries,
				"retry a simulation that overran its deadline up to this many times (capped exponential backoff)")
		case "resume":
			r.sweeps = true
			fs.StringVar(&r.Resume, "resume", r.Resume,
				"journal completed simulations to this JSONL file and skip points already journaled there")
		case "metrics":
			fs.StringVar(&r.MetricsOut, "metrics-out", r.MetricsOut,
				"stream live metric batches to this NDJSON file ('-' = stdout)")
			fallthrough
		case "metrics-every":
			fs.Int64Var(&r.MetricsEvery, "metrics-every", r.MetricsEvery,
				fmt.Sprintf("sample the metric registry every this many core cycles (0 = %d when metrics are on)", metrics.DefaultEvery))
		case "health-dump":
			fs.StringVar(&r.HealthDump, "health-dump", r.HealthDump,
				"write the diagnostic dump of a failed run to this file (default stderr)")
		default:
			panic("cliflags: unknown run flag " + name)
		}
	}
}

// health is the watchdog every point of the command runs under.
func (r *Run) health() gpu.HealthOptions {
	return gpu.HealthOptions{Deadline: r.Deadline, StallWindow: r.StallWindow}
}

// progress is where per-point lines go: stderr under -v, else nowhere.
func (r *Run) progress() io.Writer {
	if r.Verbose {
		return os.Stderr
	}
	return nil
}

// Supervisor returns the one Supervisor every point of the command runs
// under: canceled by SIGINT or SIGTERM between watchdog slices, bounded by
// -deadline and -stall-window, sampled into -metrics-out, armed with the
// spec's chaos and power cap, spread over -workers, retried -retries times,
// journaled to -resume, and reporting each point under -v. The command must
// end through Finish — on this call's error too — which releases all of it.
func (r *Run) Supervisor(spec serve.SweepSpec) (*experiments.Supervisor, error) {
	sup := &experiments.Supervisor{
		Health:   r.health(),
		Workers:  r.Workers,
		Retry:    experiments.RetryPolicy{Retries: r.Retries},
		Progress: r.progress(),
	}
	r.ctx, r.stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	sup.Health.Ctx = r.ctx
	if r.MetricsOut != "" || r.MetricsEvery > 0 {
		mo := &metrics.Options{Every: r.MetricsEvery}
		if r.MetricsOut != "" {
			var w io.WriteCloser = os.Stdout
			if r.MetricsOut != "-" {
				f, err := os.Create(r.MetricsOut)
				if err != nil {
					return nil, err
				}
				w = f
			}
			sink := metrics.NewNDJSONSink(w)
			mo.Sink = sink
			r.closeSink = func() error {
				err := sink.Close()
				if w != os.Stdout {
					if cerr := w.Close(); err == nil {
						err = cerr
					}
				}
				return err
			}
		}
		sup.Health.Metrics = mo
	}
	sup.Health = spec.Arm(sup.Health)
	if r.Resume != "" {
		j, err := experiments.OpenJournal(r.Resume)
		if err != nil {
			return nil, err
		}
		if n := j.Completed(); n > 0 {
			fmt.Fprintf(r.errw(), "resume: %d completed point(s) in %s will be skipped\n", n, r.Resume)
		}
		r.journal, sup.Journal = j, j
	}
	return sup, nil
}

// Finish ends a command that ran points under Supervisor: it flushes and
// closes the -metrics-out sink, so no exit path loses its buffered tail;
// reports fatal — a lone point's error, or what stopped a sweep early —
// with its health dump; says how to resume a sweep that a signal cut short;
// writes the failure table; and closes the journal and the signal handler.
// It returns the exit code: 1 when fatal is set or any point failed, else 0.
func (r *Run) Finish(fatal error, fails []experiments.Failure) int {
	w := r.errw()
	code := 0
	if r.closeSink != nil {
		if err := r.closeSink(); err != nil {
			fmt.Fprintf(w, "metrics sink: %v\n", err)
		}
	}
	if fatal != nil {
		fmt.Fprintln(w, fatal)
		r.writeDump(fatal)
		code = 1
	}
	if fatal == nil && r.sweeps && r.ctx != nil && errors.Is(r.ctx.Err(), context.Canceled) {
		fmt.Fprintln(w, "interrupted: journaled points are safe; re-run with the same -resume file to continue")
	}
	if experiments.WriteFailureTable(w, fails) > 0 {
		code = 1
	}
	r.journal.Close()
	if r.stop != nil {
		r.stop()
	}
	return code
}

func (r *Run) errw() io.Writer {
	if r.stderr != nil {
		return r.stderr
	}
	return os.Stderr
}

// writeDump sends err's diagnostic dump to -health-dump (JSON when the path
// ends in .json, text otherwise), or as text to stderr when it is unset.
func (r *Run) writeDump(err error) {
	var d *health.Dump
	for ; err != nil && d == nil; err = errors.Unwrap(err) {
		d = health.DumpOf(err) // through the context a sweep prefixes
	}
	if d == nil {
		return
	}
	w, path := r.errw(), r.HealthDump
	if path == "" {
		fmt.Fprint(w, d.Text())
		return
	}
	f, ferr := os.Create(path)
	if ferr != nil {
		fmt.Fprintf(w, "cannot write health dump: %v\n", ferr)
		fmt.Fprint(w, d.Text())
		return
	}
	defer f.Close()
	if js, jerr := d.JSON(); jerr == nil && strings.HasSuffix(path, ".json") {
		f.Write(append(js, '\n'))
	} else {
		fmt.Fprint(f, d.Text())
	}
	fmt.Fprintf(w, "health dump written to %s\n", path)
}

// ServeOptions fills a dcl1serve server's supervision: its local workers,
// the retries, watchdog and progress of the Supervisor each of them builds
// per point, and the live-metrics period of the batches it serves over HTTP.
func (r *Run) ServeOptions(o *serve.Options) {
	o.Workers, o.MetricsEvery = r.Workers, r.MetricsEvery
	o.Health, o.Retry, o.Progress = r.health(), experiments.RetryPolicy{Retries: r.Retries}, r.progress()
}

// FarmOptions fills a dcl1worker's supervision: the retries, watchdog and
// progress of the Supervisor it builds per leased point.
func (r *Run) FarmOptions(o *farm.Options) {
	o.Health, o.Retry, o.Progress = r.health(), experiments.RetryPolicy{Retries: r.Retries}, r.progress()
}

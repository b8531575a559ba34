package cliflags

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dcl1sim/internal/experiments"
	"dcl1sim/internal/metrics"
	"dcl1sim/internal/serve"
)

// flagRow is one flag as -help prints it: name, default, usage.
type flagRow struct{ name, def, usage string }

// TestFlagSurface pins the flags the groups install for each command, under
// the registration subsets and seeds the seven commands use: every flag's
// name, default and usage string. Merging or renaming a group cannot
// silently drop, rename or re-default a flag.
func TestFlagSurface(t *testing.T) {
	var (
		app      = flagRow{"app", "T-AlexNet", "application name (dcl1apps lists them)"}
		design   = flagRow{"design", "Sh40+C10+Boost", "design: Baseline, PrY, ShY, CDXBar, SingleL1 or MeshBase, then +CZ (ShY), +Boost (PrY, ShY), +2xNoC1 (CDXBar), +2xNoC (CDXBar, Baseline), +kxL1, +PerfectL1, +kxFlit, +PFn, +WB, +Mn (+Gn, +Latn, +Priv)"}
		cores    = flagRow{"cores", "0", "core count (0 = 80)"}
		cycles   = flagRow{"cycles", "0", "measurement window in core cycles (0 = 40000)"}
		warmup   = flagRow{"warmup", "0", "warmup window in core cycles (0 = 10000)"}
		seed     = flagRow{"seed", "1", "workload seed"}
		chaos    = flagRow{"chaos", "", "fault-injection preset: off, light, or heavy (deterministic per -chaos-seed)"}
		chaosSd  = flagRow{"chaos-seed", "1", "fault-injection seed (with -chaos)"}
		modules  = flagRow{"modules", "0", "build each design without its own +M<n> from this many linked GPU modules, 2..8 (0 or 1 = one module)"}
		linkGBps = flagRow{"link-gbps", "0", "inter-module link bandwidth in bytes per link cycle (0 = design default; needs -modules 2+)"}
		linkLat  = flagRow{"link-lat", "0", "inter-module link switch latency in link cycles (0 = design default; needs -modules 2+)"}
		powerCap = flagRow{"power-cap", "0", "power budget in watts for -power-zone; exceeding it throttles core issue (0 = uncapped)"}
		zone     = flagRow{"power-zone", "module", "power zone the -power-cap budget governs: gpu, memory, or module"}

		deadline = flagRow{"deadline", "0s", "wall-clock bound per simulation (0 = none)"}
		stall    = flagRow{"stall-window", "0", "deadlock window in core cycles (0 = default, negative disables)"}
		workers  = flagRow{"workers", "0", "simulate points across this many goroutines (0 = GOMAXPROCS; results are identical for any value)"}
		retries  = flagRow{"retries", "0", "retry a simulation that overran its deadline up to this many times (capped exponential backoff)"}
		resume   = flagRow{"resume", "", "journal completed simulations to this JSONL file and skip points already journaled there"}
		every    = flagRow{"metrics-every", "0", "sample the metric registry every this many core cycles (0 = 4096 when metrics are on)"}
		out      = flagRow{"metrics-out", "", "stream live metric batches to this NDJSON file ('-' = stdout)"}
		dump     = flagRow{"health-dump", "", "write the diagnostic dump of a failed run to this file (default stderr)"}
		tokens   = flagRow{"auth-tokens", "", "require bearer-token auth on mutating endpoints: comma-separated tenant=token pairs (tokens visible in ps; prefer -auth-token-file)"}
		tokFile  = flagRow{"auth-token-file", "", "require bearer-token auth: file of tenant=token lines (blank lines and #-comments ignored)"}

		// The daemon and the farm worker bound a simulation at 2m and retry
		// an overrun once.
		daemonDeadline = flagRow{"deadline", "2m0s", deadline.usage}
		daemonRetries  = flagRow{"retries", "1", retries.usage}
		power          = []flagRow{powerCap, zone}
		sweepRun       = []flagRow{deadline, stall, workers, retries, resume, every, out}
	)
	join := func(groups ...[]flagRow) []flagRow {
		var all []flagRow
		for _, g := range groups {
			all = append(all, g...)
		}
		return all
	}
	for _, tc := range []struct {
		cmd      string
		register func(fs *flag.FlagSet)
		want     []flagRow
	}{
		{"dcl1bench", func(fs *flag.FlagSet) {
			var spec Spec
			var run Run
			spec.Register(fs, "chaos", "modules", "power")
			run.Register(fs, "health", "workers", "retries", "resume", "metrics")
		}, join([]flagRow{chaos, chaosSd, modules, linkGBps, linkLat}, power, sweepRun)},
		{"dcl1explore", func(fs *flag.FlagSet) {
			spec := Spec{SweepSpec: serve.SweepSpec{App: "T-AlexNet", Cycles: 16000, Warmup: 8000}}
			var run Run
			spec.Register(fs, "app", "cycles", "warmup", "chaos", "modules", "power")
			run.Register(fs, "health", "workers", "retries", "resume", "metrics")
		}, join([]flagRow{app, {"cycles", "16000", cycles.usage}, {"warmup", "8000", warmup.usage},
			chaos, chaosSd, modules, linkGBps, linkLat}, power, sweepRun)},
		{"dcl1sim", func(fs *flag.FlagSet) {
			spec := Spec{SweepSpec: serve.SweepSpec{App: "T-AlexNet", Seed: 1}, Design: "Sh40+C10+Boost"}
			var run Run
			spec.Register(fs, "app", "design", "cores", "cycles", "warmup", "seed", "chaos", "modules", "power")
			run.Register(fs, "health", "metrics", "health-dump")
		}, join([]flagRow{app, design, cores, cycles, warmup, seed, chaos, chaosSd, modules, linkGBps, linkLat},
			power, []flagRow{deadline, stall, every, out, dump})},
		{"dcl1apps", func(fs *flag.FlagSet) {
			spec := Spec{Design: "Baseline"}
			var run Run
			spec.Register(fs, "modules", "power")
			run.Register(fs, "health", "metrics")
		}, join([]flagRow{modules, linkGBps, linkLat}, power, []flagRow{deadline, stall, every, out})},
		{"dcl1trace replay", func(fs *flag.FlagSet) {
			var spec Spec
			var run Run
			spec.Register(fs, "power")
			run.Register(fs, "health", "metrics")
		}, join(power, []flagRow{deadline, stall, every, out})},
		{"dcl1serve", func(fs *flag.FlagSet) {
			run := Run{Retries: 1, Deadline: 2 * time.Minute}
			var auth Auth
			run.Register(fs, "health", "workers", "retries", "metrics-every")
			auth.Register(fs)
		}, []flagRow{daemonDeadline, stall, workers, daemonRetries, every, tokens, tokFile}},
		{"dcl1worker", func(fs *flag.FlagSet) {
			run := Run{Retries: 1, Deadline: 2 * time.Minute}
			run.Register(fs, "health", "retries")
		}, []flagRow{daemonDeadline, stall, daemonRetries}},
	} {
		fs := flag.NewFlagSet(tc.cmd, flag.ContinueOnError)
		tc.register(fs)
		got := map[string]flagRow{}
		fs.VisitAll(func(f *flag.Flag) { got[f.Name] = flagRow{f.Name, f.DefValue, f.Usage} })
		for _, w := range tc.want {
			if g, ok := got[w.name]; !ok {
				t.Errorf("%s: -%s not registered", tc.cmd, w.name)
			} else if g != w {
				t.Errorf("%s: -%s is\n  %q\nwant\n  %q", tc.cmd, w.name, g, w)
			}
			delete(got, w.name)
		}
		for name := range got {
			t.Errorf("%s: unexpected flag -%s", tc.cmd, name)
		}
	}
}

// TestFinishFlushesMetricsOnFailure: a command that ends with failures
// still leaves every emitted metric batch in its -metrics-out file — the
// sink's buffered tail is flushed before the exit code is returned.
func TestFinishFlushesMetricsOnFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ndjson")
	var stderr bytes.Buffer
	run := Run{MetricsOut: path, stderr: &stderr}
	sup, err := run.Supervisor(serve.SweepSpec{})
	if err != nil {
		t.Fatal(err)
	}
	const batches = 20 // a few hundred bytes: all of it sits in the sink's buffer
	for i := 0; i < batches; i++ {
		sup.Health.Metrics.Sink.Emit(&metrics.Batch{Design: "Pr4", App: "C-BFS", Cycle: int64(i)})
	}
	fails := []experiments.Failure{{Design: "Pr4", App: "C-BFS", Err: errors.New("boom")}}
	if code := run.Finish(nil, fails); code != 1 {
		t.Errorf("Finish with a failure returned %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "1 point(s) failed") {
		t.Errorf("no failure table on stderr:\n%s", stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != batches {
		t.Errorf("%s holds %d of %d emitted batches", path, n, batches)
	}
}

// TestFinishExitCodes: a clean finish exits 0; a lone point's error exits 1
// and is reported.
func TestFinishExitCodes(t *testing.T) {
	var stderr bytes.Buffer
	clean := Run{stderr: &stderr}
	if _, err := clean.Supervisor(serve.SweepSpec{}); err != nil {
		t.Fatal(err)
	}
	if code := clean.Finish(nil, nil); code != 0 || stderr.Len() != 0 {
		t.Errorf("clean finish: code %d, stderr %q", code, stderr.String())
	}
	failed := Run{stderr: &stderr}
	if code := failed.Finish(errors.New("boom"), nil); code != 1 || stderr.String() != "boom\n" {
		t.Errorf("failed finish: code %d, stderr %q", code, stderr.String())
	}
}

// TestFinishInterruptHint: a sweep command (one with -resume) cut short by a
// signal says how to resume, whether or not a journal is open; a
// single-point command does not.
func TestFinishInterruptHint(t *testing.T) {
	const hint = "interrupted: journaled points are safe; re-run with the same -resume file to continue\n"
	for _, tc := range []struct {
		names []string
		want  string
	}{
		{[]string{"health", "workers", "retries", "resume", "metrics"}, hint},
		{[]string{"health", "metrics", "health-dump"}, ""},
	} {
		var stderr bytes.Buffer
		run := Run{stderr: &stderr}
		run.Register(flag.NewFlagSet("cmd", flag.ContinueOnError), tc.names...)
		if _, err := run.Supervisor(serve.SweepSpec{}); err != nil {
			t.Fatal(err)
		}
		run.stop() // what a SIGINT does to the command's context
		if code := run.Finish(nil, nil); code != 0 || stderr.String() != tc.want {
			t.Errorf("%v: code %d, stderr %q, want %q", tc.names, code, stderr.String(), tc.want)
		}
	}
}

package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dcl1sim/internal/chaos"
	"dcl1sim/internal/core"
	"dcl1sim/internal/gpu"
	"dcl1sim/internal/health"
	"dcl1sim/internal/workload"
)

// sweepJobs is a small four-point sweep: big enough that an interruption can
// land between points, small enough to run several times in a unit test.
func sweepJobs(t *testing.T) []gpu.Job {
	t.Helper()
	app, ok := workload.ByName("T-AlexNet")
	if !ok {
		t.Fatal("unknown app T-AlexNet")
	}
	cfg := gpu.Config{
		Cores: 8, L2Slices: 4, Channels: 2,
		WarmupCycles: 400, MeasureCycles: 1200,
	}
	var jobs []gpu.Job
	for _, d := range []gpu.Design{
		{Kind: gpu.Baseline},
		{Kind: gpu.Private, DCL1s: 4},
		{Kind: gpu.Shared, DCL1s: 4},
		{Kind: gpu.Clustered, DCL1s: 4, Clusters: 2},
	} {
		jobs = append(jobs, gpu.Job{Cfg: cfg, D: d, App: app})
	}
	return jobs
}

// TestSupervisorResume is the kill-and-resume drill: a sweep is interrupted
// after two points (leaving a journal with a torn tail line, as a killed
// process would), then resumed against the same journal. The resumed sweep
// must skip the journaled points and still produce aggregate output identical
// to an uninterrupted sweep's.
func TestSupervisorResume(t *testing.T) {
	jobs := sweepJobs(t)

	// Uninterrupted reference.
	ref, refErrs := (&Supervisor{Workers: 2}).RunAll(jobs)
	for i, err := range refErrs {
		if err != nil {
			t.Fatalf("reference job %d: %v", i, err)
		}
	}

	// Interrupted sweep: only the first two points complete.
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	s1 := &Supervisor{Journal: j1}
	for _, jb := range jobs[:2] {
		if _, err := s1.RunOne(jb); err != nil {
			t.Fatalf("interrupted-phase point: %v", err)
		}
	}
	j1.Close()
	// The kill tears the write of the third point mid-line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, `{"key":"%s","ok":true,"result":{"IPC":0.`, JobKey(jobs[2]))
	f.Close()

	// Resume: the torn line is skipped, the two whole points are not re-run.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if n := j2.Completed(); n != 2 {
		t.Fatalf("journal loaded %d completed points, want 2", n)
	}
	var progress bytes.Buffer
	s2 := &Supervisor{Workers: 2, Journal: j2, Progress: &progress}
	resumed, errs := s2.RunAll(jobs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("resumed job %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(resumed, ref) {
		t.Errorf("resumed sweep diverged from uninterrupted sweep:\nref: %+v\ngot: %+v", ref, resumed)
	}
	if got := strings.Count(progress.String(), "skip"); got != 2 {
		t.Errorf("resumed sweep skipped %d points, want 2:\n%s", got, progress.String())
	}
	// The resumed run journaled the remaining points: a second resume skips all.
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if n := j3.Completed(); n != len(jobs) {
		t.Errorf("journal holds %d completed points after resume, want %d", n, len(jobs))
	}
}

// setRetryBackoff swaps the supervisor's retry backoff for one test.
func setRetryBackoff(t *testing.T, base, max time.Duration) {
	t.Helper()
	oldBase, oldMax := retryBackoff, maxRetryBackoff
	retryBackoff, maxRetryBackoff = base, max
	t.Cleanup(func() { retryBackoff, maxRetryBackoff = oldBase, oldMax })
}

// TestSupervisorRetryExhaustsOnDeadline: wall-clock overruns are classified
// transient and retried with backoff; when every attempt overruns, the point
// fails with the deadline error after the configured number of retries.
func TestSupervisorRetryExhaustsOnDeadline(t *testing.T) {
	setRetryBackoff(t, time.Millisecond, time.Millisecond)
	jobs := sweepJobs(t)
	var progress bytes.Buffer
	s := &Supervisor{
		Health:   gpu.HealthOptions{Deadline: time.Nanosecond},
		Retry:    RetryPolicy{Retries: 2},
		Progress: &progress,
	}
	_, err := s.RunOne(jobs[0])
	var de *health.DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("want *health.DeadlineError, got %v", err)
	}
	if got := strings.Count(progress.String(), "retry"); got != 2 {
		t.Errorf("logged %d retries, want 2:\n%s", got, progress.String())
	}
	if !strings.Contains(progress.String(), "FAILED") {
		t.Errorf("exhausted point not logged as FAILED:\n%s", progress.String())
	}
}

// TestSupervisorBackoffHonorsCancel: a canceled context must interrupt the
// retry backoff sleep itself, not just the next attempt — a drain signal
// during a long backoff may otherwise leave worker goroutines lingering for
// the full delay after shutdown. The backoff is stretched to an hour and the
// cancel fires at the first retry line, just before the sleep begins, so a
// sleep that ignored the context would outlast the test's bound.
func TestSupervisorBackoffHonorsCancel(t *testing.T) {
	setRetryBackoff(t, time.Hour, time.Hour)
	jobs := sweepJobs(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := &Supervisor{
		// Every attempt overruns: transient, retried after a backoff that
		// the cancel lands in.
		Health:   gpu.HealthOptions{Ctx: ctx, Deadline: time.Nanosecond},
		Retry:    RetryPolicy{Retries: 3},
		Progress: cancelOnRetry{cancel},
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.RunOne(jobs[0])
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if !strings.Contains(err.Error(), "during retry backoff") {
			t.Fatalf("cancel did not land in the backoff: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunOne still sleeping in backoff 30s after cancel")
	}
}

// cancelOnRetry is a progress writer that cancels at the first retry line.
type cancelOnRetry struct{ cancel context.CancelFunc }

func (c cancelOnRetry) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte("retry")) {
		c.cancel()
	}
	return len(p), nil
}

// TestSleepCtx pins the helper's contract: nil ctx sleeps; live ctx sleeps;
// canceled ctx returns immediately with the cause.
func TestSleepCtx(t *testing.T) {
	if err := SleepCtx(nil, time.Millisecond); err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
	if err := SleepCtx(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("live ctx: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := SleepCtx(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx: %v", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("canceled ctx still slept")
	}
}

func TestFailureClassification(t *testing.T) {
	if !transient(&health.DeadlineError{}) {
		t.Error("DeadlineError not transient")
	}
	if !transient(fmt.Errorf("wrapped: %w", &health.DeadlineError{})) {
		t.Error("wrapped DeadlineError not transient")
	}
	for _, err := range []error{
		&health.DeadlockError{},
		&health.InvariantError{},
		&health.SimError{},
		errors.New("plain"),
	} {
		if transient(err) {
			t.Errorf("%T classified transient", err)
		}
	}
	if !canceled(fmt.Errorf("run: %w", context.Canceled)) {
		t.Error("wrapped context.Canceled not recognized")
	}
	if !canceled(context.DeadlineExceeded) {
		t.Error("context.DeadlineExceeded not recognized")
	}
	if canceled(&health.DeadlineError{}) {
		t.Error("simulation deadline confused with context cancellation")
	}
}

// TestRetryPolicyDelay pins the backoff: 250ms doubling per retry, capped
// at 5s.
func TestRetryPolicyDelay(t *testing.T) {
	want := []time.Duration{
		250 * time.Millisecond, 500 * time.Millisecond, time.Second,
		2 * time.Second, 4 * time.Second, 5 * time.Second, 5 * time.Second,
	}
	for n, w := range want {
		if d := retryDelay(n); d != w {
			t.Errorf("retryDelay(%d) = %v, want %v", n, d, w)
		}
	}
}

// supPanicApp panics everywhere — the supervisor's barrier must convert it
// into a typed *health.SimError instead of letting it kill the sweep worker.
type supPanicApp struct{}

func (supPanicApp) Label() string           { panic("injected label panic") }
func (supPanicApp) Key() string             { panic("injected key panic") }
func (supPanicApp) WavesFor(coreID int) int { panic("injected workload panic") }
func (supPanicApp) Program(cores, coreID, waveID int, sched workload.Sched, seed uint64) core.Program {
	panic("injected workload panic")
}

// TestSupervisorRecoversPanics: one panicking point degrades into its error
// slot; the rest of the batch completes normally (partial results).
func TestSupervisorRecoversPanics(t *testing.T) {
	jobs := sweepJobs(t)
	jobs[1].App = supPanicApp{}
	results, errs := (&Supervisor{Workers: 2}).RunAll(jobs)
	var se *health.SimError
	if !errors.As(errs[1], &se) {
		t.Fatalf("want *health.SimError, got %v", errs[1])
	}
	for _, i := range []int{0, 2, 3} {
		if errs[i] != nil {
			t.Errorf("healthy job %d failed alongside the panicking one: %v", i, errs[i])
		}
		if results[i].IPC <= 0 {
			t.Errorf("healthy job %d produced no results", i)
		}
	}
}

// TestSupervisorChaosKeySeparation: a clean journal entry must not satisfy a
// chaotic sweep point (and vice versa) — the chaos spec is part of the
// journal identity.
func TestSupervisorChaosKeySeparation(t *testing.T) {
	jobs := sweepJobs(t)
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	clean := &Supervisor{Journal: j}
	chaotic := &Supervisor{Journal: j, Health: gpu.HealthOptions{Chaos: chaos.Light(1)}}
	if clean.key(jobs[0]) == chaotic.key(jobs[0]) {
		t.Fatal("clean and chaotic points share a journal key")
	}
	if _, err := clean.RunOne(jobs[0]); err != nil {
		t.Fatal(err)
	}
	r, err := chaotic.RunOne(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.FaultsInjected == 0 {
		t.Error("chaotic point served from the clean journal entry (no faults injected)")
	}
}

func TestWriteFailureTable(t *testing.T) {
	var b bytes.Buffer
	if n := WriteFailureTable(&b, nil); n != 0 || b.Len() != 0 {
		t.Errorf("empty failure list wrote %q", b.String())
	}
	n := WriteFailureTable(&b, []Failure{
		{Design: "Sh4+C2", App: "T-AlexNet", Err: errors.New("boom")},
		{Design: "Pr4", App: "C-NN", Err: errors.New("bang")},
	})
	if n != 2 {
		t.Errorf("WriteFailureTable returned %d, want 2", n)
	}
	out := b.String()
	for _, want := range []string{"2 point(s) failed", "Sh4+C2", "boom", "Pr4", "bang", "DESIGN", "APP", "ERROR"} {
		if !strings.Contains(out, want) {
			t.Errorf("failure table missing %q:\n%s", want, out)
		}
	}
}

// TestRefitAppMissesJournal: a point key names the app's content, so C-BFS
// re-fitted with a smaller shared footprint (1500 -> 300 lines) misses the
// entry the app it replaces journaled, and runs afresh.
func TestRefitAppMissesJournal(t *testing.T) {
	app, _ := workload.ByName("C-BFS")
	refit := app
	refit.SharedLines = 300
	cfg := gpu.Config{Cores: 8, L2Slices: 4, Channels: 2, WarmupCycles: 400, MeasureCycles: 1200}
	old := gpu.Job{Cfg: cfg, D: mustDesign("Baseline"), App: app}
	fitted := gpu.Job{Cfg: cfg, D: old.D, App: refit}
	j, err := OpenJournal(filepath.Join(t.TempDir(), "sweep.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	sup := &Supervisor{Journal: j}
	was, err := sup.RunOne(old)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sup.RunOne(fitted)
	if err != nil {
		t.Fatal(err)
	}
	if fresh := gpu.Run(cfg, fitted.D, refit); got.IPC != fresh.IPC {
		t.Fatalf("re-fitted C-BFS read IPC %v (the replaced app's: %v), a fresh run %v", got.IPC, was.IPC, fresh.IPC)
	}
}

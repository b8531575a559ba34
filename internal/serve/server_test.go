package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcl1sim/internal/gpu"
)

// testSpec builds a canonical spec on the small test machine (8 cores, 4 L2
// slices, 2 channels) with short windows, round-tripped through the parser so
// tests exercise exactly what the wire carries.
func testSpec(t *testing.T, seed uint64, designs ...string) SweepSpec {
	t.Helper()
	s := SweepSpec{
		App: "T-AlexNet", Designs: designs,
		Cycles: 1200, Warmup: 400, Seed: seed,
		Cores: 8, L2Slices: 4, Channels: 2,
	}
	got, err := ParseSweepSpec(s.Encode())
	if err != nil {
		t.Fatalf("testSpec does not parse: %v", err)
	}
	return got
}

// coldResults runs every point of the spec directly — no service, no cache,
// no journal — as the byte-identity reference.
func coldResults(t *testing.T, spec SweepSpec) []gpu.Results {
	t.Helper()
	jobs, errs := spec.Jobs()
	out := make([]gpu.Results, len(jobs))
	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("cold reference: point %d invalid: %v", i, errs[i])
		}
		r, err := gpu.RunChecked(jobs[i].Cfg, jobs[i].D, jobs[i].App, gpu.HealthOptions{})
		if err != nil {
			t.Fatalf("cold reference: point %d: %v", i, err)
		}
		out[i] = r
	}
	return out
}

func mustJSON(t *testing.T, v interface{}) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

func waitJob(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := s.Job(id, true)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State == StateDone {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobStatus{}
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func closeServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// assertByteIdentical checks every successful point of st against the cold
// reference: the JSON the service serves must be byte-equal to a direct run.
func assertByteIdentical(t *testing.T, st JobStatus, cold []gpu.Results) {
	t.Helper()
	seen := 0
	for _, pr := range st.Results {
		if !pr.OK {
			t.Errorf("point %d (%s) failed: %s", pr.Index, pr.Design, pr.Err)
			continue
		}
		got := mustJSON(t, pr.Result)
		want := mustJSON(t, &cold[pr.Index])
		if !bytes.Equal(got, want) {
			t.Errorf("point %d (%s) not byte-identical to a cold run:\n  got  %s\n  want %s",
				pr.Index, pr.Design, got, want)
		}
		seen++
	}
	if seen != st.Total {
		t.Errorf("%d of %d points verified", seen, st.Total)
	}
}

// TestServeColdThenCached pins the core contract: a fresh sweep serves
// byte-identical results to a cold run, and an identical sweep from another
// tenant is served entirely from the content-addressed store — still
// byte-identical, finished at admission.
func TestServeColdThenCached(t *testing.T) {
	spec := testSpec(t, 0, "Baseline", "Pr4", "Sh4")
	cold := coldResults(t, spec)

	s, err := New(Options{DataDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st, err := s.Submit("alice", spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st = waitJob(t, s, st.ID)
	if st.Cached != 0 || st.Failed != 0 {
		t.Fatalf("fresh sweep: %+v", st)
	}
	assertByteIdentical(t, st, cold)

	st2, err := s.Submit("bob", spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if st2.State != StateDone || st2.Cached != st2.Total {
		t.Fatalf("identical sweep should finish cached at admission: %+v", st2)
	}
	st2 = waitJob(t, s, st2.ID)
	assertByteIdentical(t, st2, cold)

	stats := s.Stats()
	if stats.CacheEntries != 3 {
		t.Errorf("store has %d entries for 3 distinct points", stats.CacheEntries)
	}
	if stats.CacheHits < 3 {
		t.Errorf("cache hits = %d, want >= 3 (bob's whole sweep)", stats.CacheHits)
	}
	closeServer(t, s)
}

// TestPowerCapSpecServedMatchesRunChecked: a POSTed spec that names a power
// cap is served under that cap — byte-identical to gpu.RunChecked with the
// same CapSpec, and different from the uncapped run.
func TestPowerCapSpecServedMatchesRunChecked(t *testing.T) {
	free := SweepSpec{
		App: "R-HS", Designs: []string{"Baseline", "Sh4"},
		// The governor steps at each metrics sample (every 4096 cycles).
		Cycles: 16000, Warmup: 4000, Cores: 8, L2Slices: 4, Channels: 2,
	}
	spec := free
	spec.PowerCap = 1
	spec, err := ParseSweepSpec(spec.Encode())
	if err != nil {
		t.Fatalf("capped spec: %v", err)
	}
	h, pts := spec.Arm(gpu.HealthOptions{}), spec.Points()
	cold := make([]gpu.Results, len(pts))
	for i, p := range pts {
		if cold[i], err = gpu.RunChecked(p.Job.Cfg, p.Job.D, p.Job.App, h); err != nil {
			t.Fatalf("capped reference %d: %v", i, err)
		}
	}
	if uncapped := coldResults(t, free); reflect.DeepEqual(uncapped[0], cold[0]) {
		t.Fatal("a 1 W cap left the results unchanged: the spec did not arm it")
	}

	s, err := New(Options{DataDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st, err := s.Submit("alice", spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	assertByteIdentical(t, waitJob(t, s, st.ID), cold)
	closeServer(t, s)
}

// TestServeKillAndResume is the crash drill: a multi-point job is hard-killed
// mid-sweep (no drain, torn tail appended to the result store), the server
// restarts on the same data directory, and the job completes under its
// original ID with results byte-identical to a cold run. A third process
// lifetime then reconstructs the finished job entirely from the store.
func TestServeKillAndResume(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t, 0, "Baseline", "Pr2", "Pr4", "Pr8", "Sh2", "Sh4")
	cold := coldResults(t, spec)

	s, err := New(Options{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var started atomic.Int32
	gate := make(chan struct{})
	s.beforePoint = func(p *point) {
		if started.Add(1) > 2 {
			select {
			case <-gate:
			case <-s.runCtx.Done():
			}
		}
	}
	st, err := s.Submit("alice", spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	id := st.ID
	waitCond(t, "two points to complete", func() bool {
		cur, _ := s.Job(id, false)
		return cur.Completed >= 2
	})
	s.Kill()
	close(gate)

	// Simulate the torn tail of a writer killed mid-append: the log must
	// repair it on reopen, not propagate garbage.
	f, err := os.OpenFile(filepath.Join(dir, "results.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("open store for tearing: %v", err)
	}
	if _, err := f.WriteString(`{"key":"torn mid-wri`); err != nil {
		t.Fatalf("tear: %v", err)
	}
	f.Close()

	s2, err := New(Options{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if got := s2.Stats().JobsRecovered; got != 1 {
		t.Fatalf("recovered %d jobs, want 1", got)
	}
	st2, ok := s2.Job(id, false)
	if !ok {
		t.Fatalf("job %s lost across restart", id)
	}
	if !st2.Recovered {
		t.Fatalf("job not marked recovered: %+v", st2)
	}
	st2 = waitJob(t, s2, id)
	if st2.Failed != 0 {
		t.Fatalf("recovered job has failures: %+v", st2)
	}
	if st2.Cached < 2 {
		t.Fatalf("pre-kill results not served from the store: cached=%d", st2.Cached)
	}
	assertByteIdentical(t, st2, cold)
	closeServer(t, s2)

	// Third lifetime: the job now has a done record, so it reconstructs from
	// the store without re-running anything.
	s3, err := New(Options{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	st3, ok := s3.Job(id, true)
	if !ok || st3.State != StateDone {
		t.Fatalf("finished job did not reconstruct: ok=%v st=%+v", ok, st3)
	}
	if st3.Cached != st3.Total {
		t.Fatalf("reconstructed job should be fully cached: %+v", st3)
	}
	assertByteIdentical(t, st3, cold)
	closeServer(t, s3)
}

// TestServeAdmissionBackpressure pins bounded buffering: once the global
// pending bound is reached, submissions are rejected with a 429-class
// AdmissionError carrying a Retry-After hint — and succeed again once the
// queue drains. A draining server rejects with 503.
func TestServeAdmissionBackpressure(t *testing.T) {
	s, err := New(Options{DataDir: t.TempDir(), Workers: 1, MaxQueuedPoints: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	gate := make(chan struct{})
	s.beforePoint = func(p *point) {
		select {
		case <-gate:
		case <-s.runCtx.Done():
		}
	}
	st, err := s.Submit("alice", testSpec(t, 0, "Baseline", "Pr2"))
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	_, err = s.Submit("bob", testSpec(t, 0, "Pr4"))
	var ae *AdmissionError
	if !errors.As(err, &ae) {
		t.Fatalf("overload submit returned %v, want *AdmissionError", err)
	}
	if ae.Status != 429 {
		t.Fatalf("status %d, want 429", ae.Status)
	}
	if ae.RetryAfter < time.Second {
		t.Fatalf("Retry-After %v below the 1s floor", ae.RetryAfter)
	}

	close(gate)
	waitJob(t, s, st.ID)
	st2, err := s.Submit("bob", testSpec(t, 0, "Pr4"))
	if err != nil {
		t.Fatalf("submit after drain of the queue: %v", err)
	}
	waitJob(t, s, st2.ID)

	s.Drain()
	if s.Ready() {
		t.Fatalf("Ready() true while draining")
	}
	_, err = s.Submit("carol", testSpec(t, 0, "Sh2"))
	if !errors.As(err, &ae) || ae.Status != 503 {
		t.Fatalf("draining submit returned %v, want 503 AdmissionError", err)
	}
	closeServer(t, s)
}

// TestServeTenantQuota pins per-tenant bounds: one tenant exhausting its own
// queue quota is rejected while another tenant still gets in.
func TestServeTenantQuota(t *testing.T) {
	s, err := New(Options{DataDir: t.TempDir(), Workers: 1, MaxQueuedPoints: 100, TenantMaxQueued: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	gate := make(chan struct{})
	s.beforePoint = func(p *point) {
		select {
		case <-gate:
		case <-s.runCtx.Done():
		}
	}
	stA, err := s.Submit("alice", testSpec(t, 0, "Baseline", "Pr2"))
	if err != nil {
		t.Fatalf("alice: %v", err)
	}
	var ae *AdmissionError
	if _, err := s.Submit("alice", testSpec(t, 0, "Pr4")); !errors.As(err, &ae) || ae.Status != 429 {
		t.Fatalf("alice over quota returned %v, want 429", err)
	}
	stB, err := s.Submit("bob", testSpec(t, 0, "Pr4"))
	if err != nil {
		t.Fatalf("bob blocked by alice's quota: %v", err)
	}
	close(gate)
	waitJob(t, s, stA.ID)
	waitJob(t, s, stB.ID)
	closeServer(t, s)
}

// TestServeFairness pins round-robin scheduling: with one worker and two
// tenants' sweeps queued, execution interleaves — at no point does one tenant
// get more than two points ahead, where strict FIFO would run one tenant's
// whole sweep first.
func TestServeFairness(t *testing.T) {
	s, err := New(Options{DataDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var mu sync.Mutex
	var order []string
	var started atomic.Int32
	gate := make(chan struct{})
	s.beforePoint = func(p *point) {
		mu.Lock()
		order = append(order, p.job.tenant)
		mu.Unlock()
		started.Add(1)
		select {
		case <-gate:
		case <-s.runCtx.Done():
		}
	}
	designs := []string{"Baseline", "Pr2", "Pr4", "Sh2"}
	stA, err := s.Submit("alice", testSpec(t, 1, designs...))
	if err != nil {
		t.Fatalf("alice: %v", err)
	}
	waitCond(t, "alice's first point to start", func() bool { return started.Load() >= 1 })
	stB, err := s.Submit("bob", testSpec(t, 2, designs...))
	if err != nil {
		t.Fatalf("bob: %v", err)
	}
	close(gate)
	waitJob(t, s, stA.ID)
	waitJob(t, s, stB.ID)

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 8 {
		t.Fatalf("%d points executed, want 8 (%v)", len(order), order)
	}
	balance := 0
	for i, who := range order {
		if who == "alice" {
			balance++
		} else {
			balance--
		}
		if balance > 2 || balance < -2 {
			t.Fatalf("unfair schedule: imbalance %d at step %d in %v", balance, i, order)
		}
	}
	closeServer(t, s)
}

// TestServeDedupeInFlight pins single-flight dedupe: a point identical to one
// already executing parks instead of running twice, then resolves from the
// store — byte-identical, counted as a cache hit.
func TestServeDedupeInFlight(t *testing.T) {
	spec := testSpec(t, 0, "Pr4")
	s, err := New(Options{DataDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	gate := make(chan struct{})
	s.beforePoint = func(p *point) {
		select {
		case <-gate:
		case <-s.runCtx.Done():
		}
	}
	stA, err := s.Submit("alice", spec)
	if err != nil {
		t.Fatalf("alice: %v", err)
	}
	stB, err := s.Submit("bob", spec)
	if err != nil {
		t.Fatalf("bob: %v", err)
	}
	waitCond(t, "bob's identical point to park", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.parked) == 1
	})
	close(gate)
	a := waitJob(t, s, stA.ID)
	b := waitJob(t, s, stB.ID)
	if b.Cached != 1 {
		t.Fatalf("parked duplicate not served from the store: %+v", b)
	}
	ra := mustJSON(t, a.Results[0].Result)
	rb := mustJSON(t, b.Results[0].Result)
	if !bytes.Equal(ra, rb) {
		t.Fatalf("deduped result differs:\n  a %s\n  b %s", ra, rb)
	}
	if entries := s.Stats().CacheEntries; entries != 1 {
		t.Fatalf("%d store entries for 1 distinct point", entries)
	}
	closeServer(t, s)
}

// TestServeCircuitBreaker pins quarantine: after BreakerThreshold consecutive
// failures the job's remaining points are refused without running, so a
// poisoned sweep cannot burn the whole retry budget of every point.
func TestServeCircuitBreaker(t *testing.T) {
	s, err := New(Options{
		DataDir: t.TempDir(), Workers: 1,
		BreakerThreshold: 2,
		Health:           gpu.HealthOptions{Deadline: time.Nanosecond}, // every fresh point overruns instantly
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec := testSpec(t, 0, "Baseline", "Pr2", "Pr4", "Sh2", "Sh4")
	st, err := s.Submit("alice", spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st = waitJob(t, s, st.ID)
	if st.Failed != 2 || st.Quarantined != 3 {
		t.Fatalf("breaker did not trip after 2 failures: %+v", st)
	}
	if !st.BreakerOpen {
		t.Fatalf("breaker not reported open: %+v", st)
	}
	quarantined := 0
	for _, pr := range st.Results {
		if pr.Quarantined {
			if pr.OK || pr.Err == "" {
				t.Errorf("quarantined point malformed: %+v", pr)
			}
			quarantined++
		}
	}
	if quarantined != 3 {
		t.Fatalf("%d quarantined rows, want 3", quarantined)
	}
	if got := s.Stats().PointsQuarantined; got != 3 {
		t.Fatalf("stats count %d quarantined points, want 3", got)
	}
	closeServer(t, s)
}

// TestServeInvalidPointsDegrade pins graceful degradation at admission: a
// design the machine cannot build fails its own slot immediately; the rest of
// the sweep still runs.
func TestServeInvalidPointsDegrade(t *testing.T) {
	s, err := New(Options{DataDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Pr3 cannot tile 8 cores; Baseline and Pr4 can.
	st, err := s.Submit("alice", testSpec(t, 0, "Baseline", "Pr3", "Pr4"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st = waitJob(t, s, st.ID)
	if st.Failed != 1 {
		t.Fatalf("invalid point not degraded: %+v", st)
	}
	for _, pr := range st.Results {
		if pr.Design == "Pr3" && (pr.OK || pr.Err == "") {
			t.Fatalf("Pr3 should carry its validation error: %+v", pr)
		}
		if pr.Design != "Pr3" && !pr.OK {
			t.Fatalf("valid point dragged down: %+v", pr)
		}
	}
	closeServer(t, s)
}

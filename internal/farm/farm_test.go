package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dcl1sim/internal/experiments"
	"dcl1sim/internal/gpu"
	"dcl1sim/internal/serve"
)

func testSpec(t *testing.T, seed uint64, designs ...string) serve.SweepSpec {
	t.Helper()
	s := serve.SweepSpec{
		App: "T-AlexNet", Designs: designs,
		Cycles: 1200, Warmup: 400, Seed: seed,
		Cores: 8, L2Slices: 4, Channels: 2,
	}
	got, err := serve.ParseSweepSpec(s.Encode())
	if err != nil {
		t.Fatalf("testSpec does not parse: %v", err)
	}
	return got
}

// coldResults is the byte-identity reference: every point run directly,
// with no farm, no cache, no supervisor.
func coldResults(t *testing.T, spec serve.SweepSpec) []gpu.Results {
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

// newCoordinator starts a coordinator-only server (no local workers: only
// the farm can make progress) behind a real HTTP listener.
func newCoordinator(t *testing.T, opt serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	opt.DataDir = t.TempDir()
	opt.CoordinatorOnly = true
	s, err := serve.New(opt)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("close server: %v", err)
		}
	})
	return s, ts
}

func waitDone(t *testing.T, s *serve.Server, id string) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := s.Job(id, true)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State == serve.StateDone {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return serve.JobStatus{}
}

func assertByteIdentical(t *testing.T, st serve.JobStatus, cold []gpu.Results) {
	t.Helper()
	seen := 0
	for _, pr := range st.Results {
		if !pr.OK {
			t.Errorf("point %d (%s) failed: %s", pr.Index, pr.Design, pr.Err)
			continue
		}
		got, _ := json.Marshal(pr.Result)
		want, _ := json.Marshal(&cold[pr.Index])
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

func workerOpts(url, name string) Options {
	return Options{
		Server: url,
		Name:   name,
		Health: gpu.HealthOptions{Deadline: time.Minute},
		Retry:  experiments.RetryPolicy{Retries: 1},
	}
}

// TestFarmEndToEnd is the in-process farm: a coordinator-only server, two
// workers over real HTTP, and a sweep that only the farm can complete. The
// results must be byte-identical to cold runs, and every point must be
// recorded exactly once across the fleet.
func TestFarmEndToEnd(t *testing.T) {
	spec := testSpec(t, 0, "Baseline", "Pr4", "Sh4")
	cold := coldResults(t, spec)
	s, ts := newCoordinator(t, serve.Options{LeaseMaxPoints: 2})

	st, err := s.Submit("alice", spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workers := []*Worker{New(workerOpts(ts.URL, "w0")), New(workerOpts(ts.URL, "w1"))}
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker run: %v", err)
			}
		}(w)
	}

	fin := waitDone(t, s, st.ID)
	cancel()
	wg.Wait()
	assertByteIdentical(t, fin, cold)

	uploaded, points := 0, 0
	for _, w := range workers {
		ws := w.Stats()
		uploaded += ws.Uploaded
		points += ws.Points
	}
	if uploaded != 3 {
		t.Errorf("fleet uploaded %d recorded completions, want 3 (exactly once)", uploaded)
	}
	if points != 3 {
		t.Errorf("fleet simulated %d points, want 3", points)
	}
}

// TestFarmAuth pins the worker side of bearer auth: a bad token is a
// permanent error (no retry storm against a server that said no), the right
// token drives the sweep to completion.
func TestFarmAuth(t *testing.T) {
	spec := testSpec(t, 1, "Baseline")
	cold := coldResults(t, spec)
	s, ts := newCoordinator(t, serve.Options{
		AuthTokens: map[string]string{"alice": "alice-secret", "farm": "farm-secret"},
	})
	st, err := s.Submit("alice", spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	bad := New(workerOpts(ts.URL, "intruder"))
	bad.opt.Token = "wrong"
	bad.client.Token = "wrong"
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := bad.Run(ctx); err == nil {
		t.Fatalf("worker with a bad token: Run returned nil, want permanent auth error")
	}

	opt := workerOpts(ts.URL, "w0")
	opt.Token = "farm-secret"
	good := New(opt)
	runCtx, stop := context.WithCancel(context.Background())
	defer stop()
	done := make(chan error, 1)
	go func() { done <- good.Run(runCtx) }()
	fin := waitDone(t, s, st.ID)
	stop()
	if err := <-done; err != nil {
		t.Fatalf("authed worker: %v", err)
	}
	assertByteIdentical(t, fin, cold)
}

// TestFarmDrainReleasesUnstarted pins the SIGTERM contract at the lease
// layer: a draining worker releases every unstarted point immediately —
// no TTL wait — and the points complete elsewhere, still byte-identical.
func TestFarmDrainReleasesUnstarted(t *testing.T) {
	spec := testSpec(t, 2, "Baseline", "Pr4", "Sh4")
	cold := coldResults(t, spec)
	s, ts := newCoordinator(t, serve.Options{})
	st, err := s.Submit("alice", spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Acquire a lease covering the whole job, then run it under an
	// already-canceled drain context: the worker must hand everything back.
	drainer := New(workerOpts(ts.URL, "drainer"))
	g, err := drainer.client.Acquire(context.Background(), "drainer", 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if len(g.Points) != 3 {
		t.Fatalf("granted %d points, want all 3", len(g.Points))
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	drainer.w.RunLease(canceled, g)
	if ws := drainer.Stats(); ws.Released != 3 || ws.Points != 0 {
		t.Fatalf("drain stats = %+v, want 3 released, 0 run", ws)
	}
	if got := s.Stats().PointsRequeued; got != 3 {
		t.Fatalf("server requeued %d points after drain release, want 3", got)
	}

	// A healthy worker picks the released points back up.
	runCtx, stop := context.WithCancel(context.Background())
	defer stop()
	w := New(workerOpts(ts.URL, "w0"))
	done := make(chan error, 1)
	go func() { done <- w.Run(runCtx) }()
	fin := waitDone(t, s, st.ID)
	stop()
	if err := <-done; err != nil {
		t.Fatalf("worker run: %v", err)
	}
	assertByteIdentical(t, fin, cold)
}

// TestClientErrorMapping pins the client's error taxonomy: 410 is lease
// loss, 429/5xx are transient (with the Retry-After hint surfaced), and
// 4xx protocol rejections are permanent.
func TestClientErrorMapping(t *testing.T) {
	var status int
	var retryAfter string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write([]byte(`{"error":"synthetic"}`))
	}))
	defer ts.Close()
	c := &Client{Base: ts.URL}
	ctx := context.Background()

	status = http.StatusGone
	if _, err := c.Heartbeat(ctx, "l00000001"); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("410: err = %v, want ErrLeaseLost", err)
	}

	status, retryAfter = http.StatusTooManyRequests, "7"
	_, err := c.Acquire(ctx, "w0", 0)
	var te *TransientError
	if !errors.As(err, &te) {
		t.Fatalf("429: err = %v, want TransientError", err)
	}
	if te.RetryAfter != 7*time.Second {
		t.Errorf("429: RetryAfter = %v, want 7s", te.RetryAfter)
	}

	status, retryAfter = http.StatusInternalServerError, ""
	if _, err := c.Acquire(ctx, "w0", 0); !errors.As(err, &te) {
		t.Errorf("500: err = %v, want TransientError", err)
	}

	status = http.StatusBadRequest
	if _, err := c.Acquire(ctx, "w0", 0); err == nil || errors.As(err, &te) || errors.Is(err, ErrLeaseLost) {
		t.Errorf("400: err = %v, want a permanent error", err)
	}
}

package serve

import (
	"strings"
	"testing"
	"time"

	"dcl1sim/internal/gpu"
)

// newFarmServer builds a coordinator-only server: it admits, schedules,
// leases, and stores, but never simulates locally, so lease tests own every
// point deterministically.
func newFarmServer(t *testing.T, opt Options) *Server {
	t.Helper()
	if opt.DataDir == "" {
		opt.DataDir = t.TempDir()
	}
	opt.CoordinatorOnly = true
	s, err := New(opt)
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	return s
}

// completionsFor builds the uploads a healthy worker would send for the
// granted points, simulating each leased single-point spec cold — exactly
// the computation a real dcl1worker performs.
func completionsFor(t *testing.T, pts []LeasePoint) []LeaseCompletion {
	t.Helper()
	ups := make([]LeaseCompletion, 0, len(pts))
	for _, lp := range pts {
		jobs, errs := lp.Spec.Jobs()
		if len(jobs) != 1 || errs[0] != nil {
			t.Fatalf("leased point %s: bad single spec: %v", lp.Token, errs)
		}
		r, err := gpu.RunChecked(jobs[0].Cfg, jobs[0].D, jobs[0].App, gpu.HealthOptions{})
		if err != nil {
			t.Fatalf("leased point %s: %v", lp.Token, err)
		}
		res := r
		ups = append(ups, LeaseCompletion{Token: lp.Token, Epoch: lp.Epoch, OK: true, Result: &res})
	}
	return ups
}

// TestLeaseLifecycle drives the happy path end to end: grant → heartbeat →
// upload → job done, with the finished sweep byte-identical to a cold run
// and the lease table drained.
func TestLeaseLifecycle(t *testing.T) {
	spec := testSpec(t, 0, "Baseline", "Pr4", "Sh4")
	cold := coldResults(t, spec)
	s := newFarmServer(t, Options{})
	defer closeServer(t, s)

	st, err := s.Submit("alice", spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	g, err := s.AcquireLease("w1", 0)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if g.ID == "" || len(g.Points) != 3 {
		t.Fatalf("grant = %+v, want 3 points under a lease ID", g)
	}
	for _, lp := range g.Points {
		if lp.Epoch != 1 {
			t.Errorf("point %s epoch = %d, want 1 on first grant", lp.Token, lp.Epoch)
		}
		if lp.Job != st.ID {
			t.Errorf("point %s names job %q, want %q", lp.Token, lp.Job, st.ID)
		}
	}
	if js, _ := s.Job(st.ID, false); js.InFlight != 3 || js.State != StateRunning {
		t.Errorf("mid-lease status = %+v, want 3 leased, running", js)
	}
	if _, ok := s.RenewLease(g.ID); !ok {
		t.Fatalf("heartbeat on a live lease failed")
	}

	sts, err := s.CompleteLeasePoints(g.ID, completionsFor(t, g.Points))
	if err != nil {
		t.Fatalf("complete: %v", err)
	}
	for _, cs := range sts {
		if cs.Status != CompletionRecorded {
			t.Errorf("point %s status = %q, want recorded", cs.Token, cs.Status)
		}
	}
	assertByteIdentical(t, waitJob(t, s, st.ID), cold)

	z := s.Stats()
	if z.ActiveLeases != 0 || z.InFlightPoints != 0 {
		t.Errorf("after completion: %d active leases, %d points in flight, want 0/0", z.ActiveLeases, z.InFlightPoints)
	}
	if z.LeasesGranted != 1 {
		t.Errorf("leases granted = %d, want 1", z.LeasesGranted)
	}
	// The emptied lease is gone: a straggler heartbeat is fenced.
	if _, ok := s.RenewLease(g.ID); ok {
		t.Errorf("heartbeat on a settled lease succeeded")
	}
}

// TestLeaseTable walks the protocol's failure grammar as a table: expiry
// requeues exactly once, stale epochs are fenced, duplicate uploads are
// idempotent no-ops, and a dead lease ID is 410.
func TestLeaseTable(t *testing.T) {
	future := func() time.Time { return time.Now().Add(time.Hour) }
	cases := []struct {
		name string
		run  func(t *testing.T, s *Server, jobID string)
	}{
		{"expiry requeues exactly once", func(t *testing.T, s *Server, jobID string) {
			g, err := s.AcquireLease("w1", 0)
			if err != nil {
				t.Fatalf("acquire: %v", err)
			}
			s.expireLeases(future())
			s.expireLeases(future()) // racing duplicate reap: finds nothing
			if js, _ := s.Job(jobID, false); js.InFlight != 0 {
				t.Fatalf("in flight = %d after expiry, want 0", js.InFlight)
			}
			if got := s.pointsRequeued.Load(); got != int64(len(g.Points)) {
				t.Fatalf("points requeued = %d, want %d (exactly once)", got, len(g.Points))
			}
			// Requeued points re-grant with a bumped epoch.
			g2, err := s.AcquireLease("w2", 0)
			if err != nil {
				t.Fatalf("re-acquire: %v", err)
			}
			if len(g2.Points) != len(g.Points) {
				t.Fatalf("re-grant has %d points, want %d", len(g2.Points), len(g.Points))
			}
			for _, lp := range g2.Points {
				if lp.Epoch != 2 {
					t.Errorf("re-granted %s epoch = %d, want 2", lp.Token, lp.Epoch)
				}
			}
		}},
		{"dead lease ID is fenced", func(t *testing.T, s *Server, jobID string) {
			g, err := s.AcquireLease("w1", 0)
			if err != nil {
				t.Fatalf("acquire: %v", err)
			}
			s.expireLeases(future())
			if _, ok := s.RenewLease(g.ID); ok {
				t.Errorf("heartbeat on an expired lease succeeded")
			}
			if _, err := s.CompleteLeasePoints(g.ID, completionsFor(t, g.Points)); err != ErrUnknownLease {
				t.Errorf("complete on expired lease: err = %v, want ErrUnknownLease", err)
			}
			if _, ok := s.ReleaseLease(g.ID, nil); ok {
				t.Errorf("release on an expired lease succeeded")
			}
		}},
		{"stale epoch upload rejected", func(t *testing.T, s *Server, jobID string) {
			g1, err := s.AcquireLease("w1", 0)
			if err != nil {
				t.Fatalf("acquire: %v", err)
			}
			stale := completionsFor(t, g1.Points)
			s.expireLeases(future())
			g2, err := s.AcquireLease("w2", 0)
			if err != nil {
				t.Fatalf("re-acquire: %v", err)
			}
			// The stale worker's completions replayed against the NEW lease
			// (epoch 1 vs current 2) must be fenced without changing state.
			sts, err := s.CompleteLeasePoints(g2.ID, stale)
			if err != nil {
				t.Fatalf("stale complete: %v", err)
			}
			for _, cs := range sts {
				if cs.Status != CompletionStale {
					t.Errorf("stale upload %s status = %q, want stale", cs.Token, cs.Status)
				}
			}
			if js, _ := s.Job(jobID, false); js.Completed != 0 {
				t.Fatalf("stale uploads resolved %d points", js.Completed)
			}
			// The live worker's uploads still land.
			sts, err = s.CompleteLeasePoints(g2.ID, completionsFor(t, g2.Points))
			if err != nil {
				t.Fatalf("live complete: %v", err)
			}
			for _, cs := range sts {
				if cs.Status != CompletionRecorded {
					t.Errorf("live upload %s status = %q, want recorded", cs.Token, cs.Status)
				}
			}
		}},
		{"duplicate upload is idempotent", func(t *testing.T, s *Server, jobID string) {
			g, err := s.AcquireLease("w1", 0)
			if err != nil {
				t.Fatalf("acquire: %v", err)
			}
			ups := completionsFor(t, g.Points)
			first := ups[:1]
			if sts, err := s.CompleteLeasePoints(g.ID, first); err != nil || sts[0].Status != CompletionRecorded {
				t.Fatalf("first upload: %v %v", sts, err)
			}
			before, _ := s.Job(jobID, true)
			// The same upload again (a retry after a lost response): the
			// lease is still live (points remain), the point is terminal —
			// idempotent no-op.
			sts, err := s.CompleteLeasePoints(g.ID, first)
			if err != nil {
				t.Fatalf("duplicate upload: %v", err)
			}
			if sts[0].Status != CompletionDuplicate {
				t.Errorf("duplicate status = %q, want duplicate", sts[0].Status)
			}
			after, _ := s.Job(jobID, true)
			if after.Completed != before.Completed || len(after.Results) != len(before.Results) {
				t.Errorf("duplicate upload changed the job: %+v → %+v", before, after)
			}
		}},
		{"release requeues unstarted points", func(t *testing.T, s *Server, jobID string) {
			g, err := s.AcquireLease("w1", 0)
			if err != nil {
				t.Fatalf("acquire: %v", err)
			}
			n, ok := s.ReleaseLease(g.ID, nil)
			if !ok || n != len(g.Points) {
				t.Fatalf("release = (%d, %v), want (%d, true)", n, ok, len(g.Points))
			}
			// Released points are immediately re-grantable, epoch bumped.
			g2, err := s.AcquireLease("w2", 0)
			if err != nil || len(g2.Points) != len(g.Points) {
				t.Fatalf("re-acquire after release: %v, %d points", err, len(g2.Points))
			}
			for _, lp := range g2.Points {
				if lp.Epoch != 2 {
					t.Errorf("released-then-regranted %s epoch = %d, want 2", lp.Token, lp.Epoch)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newFarmServer(t, Options{})
			defer closeServer(t, s)
			st, err := s.Submit("alice", testSpec(t, 0, "Baseline", "Pr4"))
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			tc.run(t, s, st.ID)
		})
	}
}

// TestLeasePoisonQuarantine pins the poison-point path: a point whose lease
// expires PoisonThreshold times is parked through the quarantine machinery
// instead of cycling through the fleet forever.
func TestLeasePoisonQuarantine(t *testing.T) {
	spec := testSpec(t, 0, "Baseline")
	s := newFarmServer(t, Options{PoisonThreshold: 2})
	defer closeServer(t, s)
	st, err := s.Submit("alice", spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	future := time.Now().Add(time.Hour)
	for round := 1; round <= 2; round++ {
		g, err := s.AcquireLease("doomed", 0)
		if err != nil || len(g.Points) != 1 {
			t.Fatalf("round %d acquire: %v, %d points", round, err, len(g.Points))
		}
		s.expireLeases(future)
	}
	fin := waitJob(t, s, st.ID)
	if fin.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1; status %+v", fin.Quarantined, fin)
	}
	pr := fin.Results[0]
	if pr.OK || !pr.Quarantined || !strings.Contains(pr.Err, "poison point") {
		t.Errorf("poisoned point result = %+v, want quarantined poison-point error", pr)
	}
	if got := s.pointsPoisoned.Load(); got != 1 {
		t.Errorf("pointsPoisoned = %d, want 1", got)
	}
	// Nothing left to lease.
	g, err := s.AcquireLease("next", 0)
	if err != nil || g.ID != "" {
		t.Errorf("post-poison grant = %+v, %v; want empty", g, err)
	}
}

// TestLeaseRestartRequeuesAndFences pins the server-restart row of the
// failure matrix: killing the server mid-lease requeues the leased points
// under their original job IDs, the finished sweep is byte-identical, and a
// pre-restart worker is fenced by both its dead lease ID and its stale
// epoch.
func TestLeaseRestartRequeuesAndFences(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t, 0, "Baseline", "Pr4")
	cold := coldResults(t, spec)

	s1 := newFarmServer(t, Options{DataDir: dir})
	st, err := s1.Submit("alice", spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	g1, err := s1.AcquireLease("doomed", 0)
	if err != nil || len(g1.Points) != 2 {
		t.Fatalf("acquire: %v, %d points", err, len(g1.Points))
	}
	stale := completionsFor(t, g1.Points)
	s1.Kill() // crash, not drain: the lease is still live in the journal

	s2 := newFarmServer(t, Options{DataDir: dir})
	defer closeServer(t, s2)
	js, ok := s2.Job(st.ID, false)
	if !ok {
		t.Fatalf("job %s not recovered after restart", st.ID)
	}
	if !js.Recovered || js.Completed != 0 {
		t.Fatalf("recovered status = %+v, want unfinished recovered job", js)
	}
	// The pre-restart worker wakes up: its lease ID predates the restart.
	if _, err := s2.CompleteLeasePoints(g1.ID, stale); err != ErrUnknownLease {
		t.Fatalf("pre-restart lease upload: err = %v, want ErrUnknownLease", err)
	}
	// Replay restored the epoch high-water mark: the new grant out-fences
	// the old worker even if it somehow acquired the new lease ID.
	g2, err := s2.AcquireLease("fresh", 0)
	if err != nil || len(g2.Points) != 2 {
		t.Fatalf("post-restart acquire: %v, %d points", err, len(g2.Points))
	}
	for _, lp := range g2.Points {
		if lp.Epoch != 2 {
			t.Errorf("post-restart %s epoch = %d, want 2 (replayed high-water + 1)", lp.Token, lp.Epoch)
		}
		if lp.Job != st.ID {
			t.Errorf("post-restart point %s under job %q, want original %q", lp.Token, lp.Job, st.ID)
		}
	}
	sts, err := s2.CompleteLeasePoints(g2.ID, stale) // stale epochs against the live lease
	if err != nil {
		t.Fatalf("stale complete: %v", err)
	}
	for _, cs := range sts {
		if cs.Status != CompletionStale {
			t.Errorf("pre-restart epoch upload %s = %q, want stale", cs.Token, cs.Status)
		}
	}
	if _, err := s2.CompleteLeasePoints(g2.ID, completionsFor(t, g2.Points)); err != nil {
		t.Fatalf("live complete: %v", err)
	}
	assertByteIdentical(t, waitJob(t, s2, st.ID), cold)
}

// TestLeaseSingleFlightDedupe pins lease/local single-flight integration:
// an identical point submitted by a second tenant parks behind the leased
// key and resolves from the store when the lease's upload lands.
func TestLeaseSingleFlightDedupe(t *testing.T) {
	spec := testSpec(t, 0, "Baseline")
	cold := coldResults(t, spec)
	s := newFarmServer(t, Options{})
	defer closeServer(t, s)

	st1, err := s.Submit("alice", spec)
	if err != nil {
		t.Fatalf("submit alice: %v", err)
	}
	g, err := s.AcquireLease("w1", 0)
	if err != nil || len(g.Points) != 1 {
		t.Fatalf("acquire: %v, %d points", err, len(g.Points))
	}
	// Identical spec from another tenant while the point is out on lease.
	st2, err := s.Submit("bob", spec)
	if err != nil {
		t.Fatalf("submit bob: %v", err)
	}
	// Bob's twin parks: a second lease request must come back empty rather
	// than double-computing the key.
	g2, err := s.AcquireLease("w2", 0)
	if err != nil || g2.ID != "" {
		t.Fatalf("twin grant = %+v, %v; want empty", g2, err)
	}
	if _, err := s.CompleteLeasePoints(g.ID, completionsFor(t, g.Points)); err != nil {
		t.Fatalf("complete: %v", err)
	}
	assertByteIdentical(t, waitJob(t, s, st1.ID), cold)
	fin2 := waitJob(t, s, st2.ID)
	assertByteIdentical(t, fin2, cold)
	if fin2.Cached != 1 {
		t.Errorf("bob's twin cached = %d, want 1 (served from the store)", fin2.Cached)
	}
}

// TestRetryAfterJitter pins the per-tenant backoff spread: hints are
// deterministic per tenant (stable, testable) but differ across tenants so
// a synchronized fleet's 429 retries do not stampede back in lockstep.
func TestRetryAfterJitter(t *testing.T) {
	s := newFarmServer(t, Options{})
	defer closeServer(t, s)
	hint := func(tenant string) time.Duration {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.retryAfterLocked(tenant, 10_000)
	}
	a1, a2 := hint("alice"), hint("alice")
	if a1 != a2 {
		t.Fatalf("hint for one tenant not deterministic: %v vs %v", a1, a2)
	}
	if a1 < time.Second {
		t.Errorf("hint %v below the 1s clamp floor", a1)
	}
	distinct := map[time.Duration]bool{}
	for _, tenant := range []string{"alice", "bob", "carol", "dave", "erin"} {
		distinct[hint(tenant)] = true
	}
	if len(distinct) < 2 {
		t.Errorf("five tenants share one retry hint %v: no spread", a1)
	}
}

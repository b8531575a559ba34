package serve

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"dcl1sim/internal/gpu"
)

// The lease protocol is the only way a point leaves the queue: a farm worker
// POSTs /v1/leases and the server's own workers call the same handlers in
// process (localTransport), so grant, park, breaker, expiry, abandon and
// complete are written once. A worker receives a batch of pending points
// under a lease ID with a TTL, heartbeats to keep it alive, and uploads each
// point's result as it finishes. Every failure mode maps onto one invariant —
// a point is requeued exactly once, completed exactly once, or parked as
// poison, and the finished sweep is byte-identical to a single-process run:
//
//   - Worker crash (SIGKILL, OOM, power loss): heartbeats stop, the lease
//     expires, and the reaper requeues its unresolved points at the head of
//     their tenants' queues. The content-addressed store makes the re-run
//     idempotent.
//   - Network partition / stale worker: every grant bumps the point's lease
//     epoch, and a completion must name both a live lease ID and the
//     point's current epoch. A worker that wakes after its lease expired
//     holds a dead ID and a stale epoch, so it cannot clobber a reassigned
//     point; if the result it computed already landed (deterministically
//     identical), the upload degrades to an idempotent no-op.
//   - Server restart: lease grants are journaled to jobs.jsonl, so recovery
//     restores every point's epoch high-water mark before granting again —
//     pre-restart workers are fenced by both the unknown lease ID and the
//     stale epoch. The points themselves requeue under their original job
//     IDs through the ordinary incomplete-job replay. A local worker killed
//     with the server abandons its point un-journaled the same way.
//   - Poison point: a point whose lease expires PoisonThreshold times has
//     killed that many workers; it is quarantined through the same
//     machinery as the job circuit breaker instead of cycling through the
//     fleet forever.
type lease struct {
	id        string
	worker    string
	expires   time.Time
	grantedAt time.Time
	last      time.Time         // grant or latest recorded completion (point run time)
	points    map[string]*point // token → unresolved point
}

// Lease wire types. The farm worker (internal/farm) speaks exactly these.

// LeaseRequest is the body of POST /v1/leases.
type LeaseRequest struct {
	// Worker identifies the requesting worker in /statz and the journal; it
	// carries no authority (authentication is the bearer token).
	Worker string `json:"worker"`
	// MaxPoints caps the grant; the server may return fewer (or none). 0
	// selects the server's per-grant cap.
	MaxPoints int `json:"max_points,omitempty"`
}

// LeasePoint is one leased point: everything a worker needs to reproduce the
// simulation bit-for-bit, plus the fencing identity it must echo back.
type LeasePoint struct {
	// Token names the point within its lease ("jobID/index").
	Token string `json:"token"`
	Job   string `json:"job"`
	Index int    `json:"index"`
	// Epoch is the point's lease-epoch fence: completions carrying a stale
	// epoch are rejected.
	Epoch  int    `json:"epoch"`
	Design string `json:"design"`
	// Spec is the single-point sweep spec (the submitting job's spec with
	// Designs reduced to this one design); expanding it yields the exact
	// gpu.Job the server would run locally.
	Spec SweepSpec `json:"spec"`

	// local is the server's own point, set on in-process grants only: the
	// local worker reads the job's metrics sink and the test hook from it.
	local *point
}

// LeaseGrant is the response to POST /v1/leases. An empty grant (no ID, no
// points) means nothing is pending; the worker should poll again after
// PollAfterSeconds.
type LeaseGrant struct {
	ID         string       `json:"id,omitempty"`
	Worker     string       `json:"worker,omitempty"`
	TTLSeconds float64      `json:"ttl_seconds,omitempty"`
	Points     []LeasePoint `json:"points,omitempty"`
	// PollAfterSeconds is the empty-grant backoff hint, jittered
	// deterministically per worker so an idle fleet does not poll in
	// lockstep.
	PollAfterSeconds float64 `json:"poll_after_seconds,omitempty"`
}

// LeaseCompletion is one uploaded point result inside POST
// /v1/leases/{id}/complete.
type LeaseCompletion struct {
	Token string `json:"token"`
	Epoch int    `json:"epoch"`
	OK    bool   `json:"ok"`
	Err   string `json:"err,omitempty"`
	// Result carries the simulation output when OK. The server stores it
	// content-addressed under the point's key, so duplicate uploads of the
	// deterministic result are idempotent.
	Result *gpu.Results `json:"result,omitempty"`
}

// Completion statuses echoed per uploaded point.
const (
	// CompletionRecorded: the result landed and resolved the point.
	CompletionRecorded = "recorded"
	// CompletionDuplicate: the point already resolved with this content key
	// (idempotent no-op — the store already holds the identical result).
	CompletionDuplicate = "duplicate"
	// CompletionStale: fencing rejected the upload (stale epoch, a point
	// this lease no longer owns, or a success without a result) and the
	// server state did not change.
	CompletionStale = "stale"
)

// CompletionStatus is the per-point outcome of a completion upload.
type CompletionStatus struct {
	Token  string `json:"token"`
	Status string `json:"status"`
}

// CompleteRequest is the body of POST /v1/leases/{id}/complete.
type CompleteRequest struct {
	Completions []LeaseCompletion `json:"completions"`
}

// CompleteResponse is the body answering POST /v1/leases/{id}/complete.
type CompleteResponse struct {
	Statuses []CompletionStatus `json:"statuses"`
}

// HeartbeatResponse answers POST /v1/leases/{id}/heartbeat.
type HeartbeatResponse struct {
	TTLSeconds float64 `json:"ttl_seconds"`
}

// ReleaseRequest is the body of POST /v1/leases/{id}/release. Empty Tokens
// releases every unresolved point of the lease.
type ReleaseRequest struct {
	Tokens []string `json:"tokens,omitempty"`
}

// ReleaseResponse answers POST /v1/leases/{id}/release.
type ReleaseResponse struct {
	Requeued int `json:"requeued"`
}

// ErrUnknownLease marks lease operations against an expired, fenced or
// never-granted lease ID; the HTTP API maps it to 410 Gone and the farm
// client maps 410 back to it. A worker holding it must abandon the lease's
// points — the server has already requeued or reassigned them.
var ErrUnknownLease = errors.New("serve: lease lost (expired, fenced, or never granted)")

func pointToken(jobID string, idx int) string {
	return jobID + "/" + strconv.Itoa(idx)
}

// AcquireLease grants worker a lease over up to max pending points, fairly
// round-robin across tenants. Points whose job breaker is open quarantine
// immediately, points already satisfied by the store complete as cache hits,
// and points whose content key is already executing (under any lease, local
// or remote) park behind it — none of those consume grant slots. An empty
// grant means nothing is dispatchable right now.
func (s *Server) AcquireLease(worker string, max int) (LeaseGrant, error) {
	g, _, err := s.acquire(worker, max, false)
	return g, err
}

// acquire is AcquireLease for both transports. local marks an in-process
// grant (its points carry the server's point); an empty grant also returns
// the wake channel that closes when dispatchable work may have appeared.
func (s *Server) acquire(worker string, max int, local bool) (LeaseGrant, <-chan struct{}, error) {
	if max <= 0 || max > s.opt.LeaseMaxPoints {
		max = s.opt.LeaseMaxPoints
	}
	now := time.Now()
	s.mu.Lock()
	defer s.unlock()
	if s.draining {
		return LeaseGrant{}, nil, &AdmissionError{Reason: "server is draining", Status: 503, RetryAfter: 10 * time.Second}
	}
	s.expireLeasesLocked(now)

	l := &lease{worker: worker, points: map[string]*point{}}
	var pts []LeasePoint
	for len(pts) < max {
		p := s.leaseNextLocked()
		if p == nil {
			break
		}
		switch {
		case p.job.tripped:
			// Circuit breaker open: quarantine without granting so one
			// poisoned job cannot wedge the workers.
			s.resolveLocked(p, PointResult{
				Index: p.idx, Design: p.name, OK: false, Quarantined: true,
				Err: "quarantined: job circuit breaker open",
			})
		case s.storeHitLocked(p):
			// Resolved from the content-addressed store (e.g. a requeued
			// duplicate whose twin completed meanwhile).
		case s.running[p.key]:
			// Identical point already executing somewhere: park behind it;
			// its completion resolves it from the store.
			s.parked[p.key] = append(s.parked[p.key], p)
		default:
			s.store.count(false)
			p.epoch++
			p.lease = l
			s.running[p.key] = true
			s.leasedPoints++
			p.job.leased++
			s.tenants[p.job.tenant].inflight++
			lp := LeasePoint{
				Token: pointToken(p.job.id, p.idx), Job: p.job.id, Index: p.idx, Epoch: p.epoch,
				Design: p.name, Spec: p.job.spec.Single(p.idx),
			}
			if local {
				lp.local = p
			}
			l.points[lp.Token] = p
			pts = append(pts, lp)
		}
	}
	if len(pts) == 0 {
		return LeaseGrant{Worker: worker, PollAfterSeconds: jitterSeconds(worker, 1.0)}, s.wake, nil
	}
	s.leaseSeq++
	l.id = fmt.Sprintf("l%08d", s.leaseSeq)
	l.grantedAt, l.last = now, now
	l.expires = now.Add(s.opt.LeaseTTL)
	// Journal the grant (fsynced, under the lock like submissions): restart
	// recovery replays it to restore each point's epoch high-water mark, so
	// post-restart grants always fence pre-restart workers.
	rec := jobRecord{Op: "lease", ID: l.id, Worker: worker}
	for _, lp := range pts {
		rec.Points = append(rec.Points, leasePointRecord{Job: lp.Job, Index: lp.Index, Epoch: lp.Epoch})
	}
	if err := s.jlog.Append(rec); err != nil {
		// Durability trouble fences nothing: refuse the grant and requeue.
		for _, lp := range pts {
			s.requeueLeasedPointLocked(l.points[lp.Token])
		}
		return LeaseGrant{}, nil, fmt.Errorf("serve: persist lease grant: %w", err)
	}
	s.leases[l.id] = l
	s.leasesGranted.Add(1)
	return LeaseGrant{ID: l.id, Worker: worker, TTLSeconds: s.opt.LeaseTTL.Seconds(), Points: pts}, nil, nil
}

// storeHitLocked resolves p from the result store when its key is already
// recorded, returning whether it did. Admission, grants and the twins parked
// behind a released key all resolve store hits here. Caller holds the mutex.
func (s *Server) storeHitLocked(p *point) bool {
	r, ok := s.store.Peek(p.key)
	if !ok {
		return false
	}
	s.store.count(true)
	s.resolveLocked(p, PointResult{
		Index: p.idx, Design: p.name, OK: true, Cached: true, Result: &r,
	})
	return true
}

// leaseNextLocked pops the next leasable point: round-robin across tenants,
// skipping tenants at their in-flight quota (leased points, local or
// remote). Caller holds the mutex.
func (s *Server) leaseNextLocked() *point {
	n := len(s.order)
	for i := 0; i < n; i++ {
		t := s.tenants[s.order[(s.rrNext+i)%n]]
		if len(t.queue) == 0 || (s.opt.TenantMaxInFlight > 0 && t.inflight >= s.opt.TenantMaxInFlight) {
			continue
		}
		p := t.queue[0]
		t.queue = t.queue[1:]
		s.rrNext = (s.rrNext + i + 1) % n
		return p
	}
	return nil
}

// RenewLease extends the lease's TTL from now. A false return means the
// lease is unknown or already expired — the worker must abandon its points
// (they have been requeued or reassigned).
func (s *Server) RenewLease(id string) (time.Duration, bool) {
	now := time.Now()
	s.mu.Lock()
	defer s.unlock()
	s.expireLeasesLocked(now)
	l, ok := s.leases[id]
	if !ok {
		return 0, false
	}
	l.expires = now.Add(s.opt.LeaseTTL)
	return s.opt.LeaseTTL, true
}

// CompleteLeasePoints records uploaded results against a live lease. It is
// where every fresh point, local or remote, resolves. Each completion
// resolves exactly one of three ways: recorded (the result landed and the
// point is terminal), duplicate (the point already resolved with this
// content key — idempotent no-op), or stale (fencing rejected it, server
// state unchanged). ErrUnknownLease fences a worker whose lease expired or
// predates a restart.
func (s *Server) CompleteLeasePoints(id string, ups []LeaseCompletion) ([]CompletionStatus, error) {
	now := time.Now()
	s.mu.Lock()
	defer s.unlock()
	s.expireLeasesLocked(now)
	l, ok := s.leases[id]
	if !ok {
		return nil, ErrUnknownLease
	}
	out := make([]CompletionStatus, 0, len(ups))
	for _, up := range ups {
		st := CompletionStatus{Token: up.Token, Status: CompletionStale}
		p, owned := l.points[up.Token]
		switch {
		case up.OK && up.Result == nil:
			// A success without a result would store a zero gpu.Results and
			// serve it forever: fenced, and the point re-runs on expiry.
		case owned && up.Epoch == p.epoch:
			s.recordLocked(l, p, up, now)
			st.Status = CompletionRecorded
		case s.pointResolvedLocked(up.Token):
			// The point already resolved (duplicate upload, or a retry after
			// a lost response). Content addressing makes this a no-op: the
			// store already holds the byte-identical result.
			st.Status = CompletionDuplicate
		}
		out = append(out, st)
	}
	if len(l.points) == 0 {
		delete(s.leases, l.id) // an emptied lease retires
	}
	return out, nil
}

// recordLocked lands one live upload: content-addressed in the store
// (fsynced), then the point resolves. The journal write happens under the
// server mutex exactly like submissions — a kill between the two sides leaves
// either a re-runnable point or a stored result, never a lost one. Caller
// holds the mutex.
func (s *Server) recordLocked(l *lease, p *point, up LeaseCompletion, now time.Time) {
	pr := PointResult{Index: p.idx, Design: p.name, OK: up.OK}
	var res gpu.Results
	var err error
	if up.OK {
		res = *up.Result
		pr.Result = &res
	} else {
		err = errors.New(up.Err)
		if up.Err == "" {
			err = fmt.Errorf("worker %s reported failure without detail", l.worker)
		}
		pr.Err = err.Error()
	}
	s.store.Journal().Record(p.key, res, err)
	s.runNanos.Add(now.Sub(l.last).Nanoseconds())
	s.runCount.Add(1)
	l.last = now
	// Twins parked behind this key resolve right now from the result that
	// just landed (or requeue to run fresh after a failure).
	s.unleaseLocked(p)
	s.resolveLocked(p, pr)
}

// pointResolvedLocked reports whether the point named by token is already
// terminal in its job. Caller holds the mutex.
func (s *Server) pointResolvedLocked(token string) bool {
	jobID, idx := splitToken(token)
	j, ok := s.jobs[jobID]
	if !ok || idx < 0 || idx >= j.total {
		return false
	}
	for _, pr := range j.results {
		if pr.Index == idx {
			return true
		}
	}
	return false
}

// splitToken parses a canonical "jobID/index" token; anything else (trailing
// garbage, a sign, leading zeros) yields index -1.
func splitToken(token string) (string, int) {
	jobID, rest, ok := strings.Cut(token, "/")
	idx, err := strconv.Atoi(rest)
	if !ok || err != nil || strconv.Itoa(idx) != rest {
		return "", -1
	}
	return jobID, idx
}

// ReleaseLease requeues the named unresolved points (all of them when tokens
// is empty) at the head of their tenants' queues — the graceful half of the
// protocol, used by a draining worker for points it never started. Returns
// the number requeued; ok=false fences an unknown or expired lease.
func (s *Server) ReleaseLease(id string, tokens []string) (int, bool) {
	now := time.Now()
	s.mu.Lock()
	defer s.unlock()
	s.expireLeasesLocked(now)
	l, ok := s.leases[id]
	if !ok {
		return 0, false
	}
	if len(tokens) == 0 {
		tokens = sortedTokens(l)
	}
	requeued := 0
	for _, tok := range tokens {
		if p, owned := l.points[tok]; owned {
			s.requeueLeasedPointLocked(p)
			requeued++
		}
	}
	s.pointsRequeued.Add(int64(requeued))
	if len(l.points) == 0 {
		delete(s.leases, l.id)
		s.leasesReleased.Add(1)
	}
	return requeued, true
}

func sortedTokens(l *lease) []string {
	tokens := make([]string, 0, len(l.points))
	for tok := range l.points {
		tokens = append(tokens, tok)
	}
	sort.Strings(tokens)
	return tokens
}

// unleaseLocked takes p out of its lease: frees its tenant's quota slot and
// its key's single-flight slot, which resolves or requeues the twins parked
// behind the key. The epoch is left at its granted value — the next grant
// bumps it, so the releasing worker's epoch can never match again. Caller
// holds the mutex.
func (s *Server) unleaseLocked(p *point) {
	delete(p.lease.points, pointToken(p.job.id, p.idx))
	p.lease = nil
	s.leasedPoints--
	p.job.leased--
	s.tenants[p.job.tenant].inflight--
	s.requeueParkedLocked(p.key)
	s.wakeLocked()
}

// requeueParkedLocked releases key's single-flight slot. Twins parked behind
// it resolve from the store when it now holds the key — no queue round-trip,
// which in a coordinator-only deployment would otherwise stall them until the
// next lease poll — and otherwise (a failed attempt, an expiry, a release)
// requeue at the head of their tenants' queues to run fresh. Caller holds the
// mutex.
func (s *Server) requeueParkedLocked(key string) {
	delete(s.running, key)
	waiters := s.parked[key]
	delete(s.parked, key)
	for _, w := range waiters {
		if !s.storeHitLocked(w) {
			s.pushFrontLocked(w)
		}
	}
}

// requeueLeasedPointLocked returns one leased point to the head of its
// tenant's queue. Caller holds the mutex.
func (s *Server) requeueLeasedPointLocked(p *point) {
	s.unleaseLocked(p)
	s.pushFrontLocked(p)
}

// expireLeasesLocked reaps every lease whose TTL passed: unresolved points
// either requeue at the head of their queues (exactly once — the lease is
// deleted in the same step, so a racing release or duplicate reap finds
// nothing) or, when the expiry pushes the point's death count to the poison
// threshold, quarantine as poison. Caller holds the mutex.
func (s *Server) expireLeasesLocked(now time.Time) {
	for id, l := range s.leases {
		if !l.expires.Before(now) {
			continue
		}
		delete(s.leases, id)
		s.leasesExpired.Add(1)
		for _, tok := range sortedTokens(l) {
			p := l.points[tok]
			p.deaths++
			if s.opt.PoisonThreshold > 0 && p.deaths >= s.opt.PoisonThreshold {
				// This point has now killed (or outlived) PoisonThreshold
				// workers: park it as poison through the quarantine
				// machinery instead of feeding it to the next one.
				s.unleaseLocked(p)
				s.pointsPoisoned.Add(1)
				s.resolveLocked(p, PointResult{
					Index: p.idx, Design: p.name, OK: false, Quarantined: true,
					Err: fmt.Sprintf("poison point: lease expired %d times (workers presumed killed mid-point)", p.deaths),
				})
				continue
			}
			s.requeueLeasedPointLocked(p)
			s.pointsRequeued.Add(1)
		}
	}
}

// expireLeases runs lease expiry against an explicit clock reading — the
// reaper calls it with time.Now(); tests pass a future instant for a
// deterministic drill.
func (s *Server) expireLeases(now time.Time) {
	s.mu.Lock()
	defer s.unlock()
	s.expireLeasesLocked(now)
}

// leaseReaper periodically expires dead leases so a crashed worker's points
// requeue within a fraction of the TTL even when no other lease traffic
// arrives.
func (s *Server) leaseReaper() {
	defer s.wg.Done()
	period := s.opt.LeaseTTL / 4
	if period < 50*time.Millisecond {
		period = 50 * time.Millisecond
	}
	if period > 5*time.Second {
		period = 5 * time.Second
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-s.runCtx.Done():
			return
		case <-tick.C:
			s.expireLeases(time.Now())
		}
	}
}

// jitterSeconds returns a 1-second base plus a deterministic per-name jitter
// in [0, spread): the same name always backs off the same way, different
// names spread out, and no shared clock or RNG state is involved.
func jitterSeconds(name string, spread float64) float64 {
	return 1.0 + spread*float64(fnv64(name)%1024)/1024
}

// fnv64 is the FNV-1a hash of s (inline to keep the hot admission path free
// of allocations from hash.Hash64).
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

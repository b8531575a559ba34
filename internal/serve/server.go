package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dcl1sim/internal/experiments"
	"dcl1sim/internal/gpu"
)

// Options configures a Server. The zero value of every field but DataDir is
// usable: defaults are filled by New.
type Options struct {
	// DataDir holds the persistent state: results.jsonl (the content-
	// addressed result store) and jobs.jsonl (the job log recovery replays).
	DataDir string
	// Workers is the number of local lease workers, each running one point
	// at a time (default GOMAXPROCS; CoordinatorOnly starts none).
	Workers int
	// MaxQueuedPoints bounds the total pending (admitted, not yet terminal,
	// not in flight) points across all tenants; submissions that would
	// exceed it are rejected with 429 + Retry-After. Default 4096.
	MaxQueuedPoints int
	// TenantMaxQueued bounds one tenant's pending points (default
	// MaxQueuedPoints: no per-tenant cap beyond the global one).
	TenantMaxQueued int
	// TenantMaxInFlight is the per-tenant concurrency quota, enforced at
	// grant over leased points, local or remote (default Workers with a
	// local pool; unbounded under CoordinatorOnly).
	TenantMaxInFlight int
	// BreakerThreshold trips a job's circuit breaker after this many
	// consecutive point failures: remaining points quarantine instead of
	// running, so a poisoned job cannot wedge the queue by burning every
	// retry budget. Default 3; negative disables.
	BreakerThreshold int
	// Retry configures the per-point supervisor exactly as the CLI sweeps do.
	Retry experiments.RetryPolicy
	// Health seeds every point's simulation options (stall window, per-
	// simulation deadline); the server fills Ctx and the spec's chaos and
	// cap per point.
	Health gpu.HealthOptions
	// MetricsEvery, when > 0, attaches live metrics collection to every
	// fresh point: the registry is snapshotted every MetricsEvery core
	// cycles and batches stream on GET /v1/jobs/{id}/metrics (Prometheus
	// exposition snapshot, or NDJSON/SSE with ?follow=1). 0 disables the
	// endpoint. Collection never changes results or cache keys, but cached
	// points skip simulation and therefore produce no stream.
	MetricsEvery int64
	// Progress, when non-nil, receives the supervisor's per-point lines.
	Progress io.Writer

	// LeaseTTL bounds how long a farm lease survives without a heartbeat
	// before its points requeue (default 15s).
	LeaseTTL time.Duration
	// LeaseMaxPoints caps one grant (default 64).
	LeaseMaxPoints int
	// PoisonThreshold parks a point as poison after this many lease
	// expiries — a point that keeps killing workers must not cycle through
	// the fleet forever. Default 3; negative disables.
	PoisonThreshold int
	// CoordinatorOnly starts zero local workers: the server admits,
	// schedules, leases, and stores, but never simulates. Farm workers do
	// all the computing.
	CoordinatorOnly bool
	// AuthTokens maps tenant names to static bearer tokens. When non-empty,
	// every mutating endpoint (job submission and the lease API) requires
	// Authorization: Bearer <token>; the token determines the tenant and
	// the X-Tenant header is no longer trusted. Empty keeps the
	// honor-system X-Tenant behavior for closed deployments.
	AuthTokens map[string]string
	// StoreMaxAge and StoreMaxBytes bound the result store: entries older
	// than MaxAge (or the oldest beyond MaxBytes) are dropped when
	// results.jsonl is compacted — at startup and every CompactEvery
	// (default 1h when a bound is set). Zero values keep everything.
	StoreMaxAge   time.Duration
	StoreMaxBytes int64
	CompactEvery  time.Duration
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxQueuedPoints <= 0 {
		o.MaxQueuedPoints = 4096
	}
	if o.TenantMaxQueued <= 0 {
		o.TenantMaxQueued = o.MaxQueuedPoints
	}
	if o.TenantMaxInFlight <= 0 && !o.CoordinatorOnly {
		o.TenantMaxInFlight = o.Workers
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 3
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 15 * time.Second
	}
	if o.LeaseMaxPoints <= 0 {
		o.LeaseMaxPoints = 64
	}
	if o.PoisonThreshold == 0 {
		o.PoisonThreshold = 3
	}
	if o.CompactEvery <= 0 {
		o.CompactEvery = time.Hour
	}
	return o
}

// AdmissionError is a rejected submission: the queue bounds are exhausted
// (Status 429) or the server is draining (Status 503). RetryAfter is the
// server's backoff hint from observed point throughput.
type AdmissionError struct {
	Reason     string
	Status     int
	RetryAfter time.Duration
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("serve: submission rejected: %s (retry after %v)", e.Reason, e.RetryAfter)
}

// tenant is one traffic source's scheduling state. The queue is strictly
// bounded by admission control — the server never buffers without bound.
type tenant struct {
	name      string
	queue     []*point
	pending   int // queued + parked + leased points (not yet terminal)
	inflight  int // points out under leases (the quota's count)
	completed int64
}

// Server is the simulation service: a bounded multi-tenant job queue with
// fair round-robin lease grants, a persistent content-addressed result
// store, and crash recovery from fsynced JSONL logs. Its own workers are
// lease workers like any farm worker, over an in-process transport. Create
// with New, expose with Handler, stop with Close (graceful drain) or Kill
// (abrupt, for crash drills).
type Server struct {
	opt   Options
	store *Store
	jlog  *experiments.Log

	mu      sync.Mutex
	wake    chan struct{} // closed and replaced when dispatchable work may have appeared
	tenants map[string]*tenant
	order   []string // round-robin order, append-on-first-submit
	rrNext  int
	jobs    map[string]*job
	jobSeq  int
	done    []jobRecord // done records of jobs finished under the mutex, appended by unlock

	pendingPoints int                 // all tenants' pending
	running       map[string]bool     // content keys out under a lease
	parked        map[string][]*point // points waiting on an identical in-flight key

	leases       map[string]*lease // live leases by ID
	leaseSeq     int
	leasedPoints int               // points out under live leases
	tokens       map[string]string // bearer token → tenant (auth index)

	draining bool

	// drainCtx ends the local workers' loops (Drain); runCtx cancels their
	// simulations (Kill, or Close past its deadline).
	drainCtx    context.Context
	drainCancel context.CancelFunc
	runCtx      context.Context
	runCancel   context.CancelFunc
	workers     sync.WaitGroup // local lease workers
	wg          sync.WaitGroup // reaper and compactor
	started     time.Time

	// lifetime counters (atomics: read lock-free by /statz and tests)
	jobsSubmitted     atomic.Int64
	jobsCompleted     atomic.Int64
	jobsRecovered     atomic.Int64
	pointsCompleted   atomic.Int64
	pointsFailed      atomic.Int64
	pointsCached      atomic.Int64
	pointsQuarantined atomic.Int64
	runNanos          atomic.Int64 // cumulative grant-to-completion time of recorded points
	runCount          atomic.Int64

	// lease lifetime counters
	leasesGranted  atomic.Int64
	leasesExpired  atomic.Int64
	leasesReleased atomic.Int64
	pointsRequeued atomic.Int64 // lease expiries + releases
	pointsPoisoned atomic.Int64

	// beforePoint, when set (tests), runs in a local worker before each
	// granted point simulates — a hook to hold the workers in a known state.
	beforePoint func(p *point)
}

// New opens the server's persistent state under opt.DataDir, replays the job
// log — incomplete jobs are resubmitted under their original IDs, finished
// ones reconstructed from the result store — and starts Options.Workers
// local lease workers (none under CoordinatorOnly).
func New(opt Options) (*Server, error) {
	opt = opt.withDefaults()
	if opt.DataDir == "" {
		return nil, fmt.Errorf("serve: Options.DataDir is required (persistent state lives there)")
	}
	tokens, err := authIndex(opt.AuthTokens)
	if err != nil {
		return nil, err
	}
	policy := StorePolicy{MaxAge: opt.StoreMaxAge, MaxBytes: opt.StoreMaxBytes}
	store, err := OpenStore(filepath.Join(opt.DataDir, "results.jsonl"), policy)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opt:     opt,
		store:   store,
		tenants: map[string]*tenant{},
		jobs:    map[string]*job{},
		running: map[string]bool{},
		parked:  map[string][]*point{},
		leases:  map[string]*lease{},
		tokens:  tokens,
		started: time.Now(),
		wake:    make(chan struct{}),
	}
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())
	s.runCtx, s.runCancel = context.WithCancel(context.Background())

	// Replay the job log: collect submissions in order and the done set.
	type sub struct {
		id, tenant string
		raw        json.RawMessage
	}
	var subs []sub
	done := map[string]bool{}
	leaseSeq := 0
	epochs := map[string]map[int]int{} // jobID → point index → epoch high-water mark
	jlog, err := experiments.OpenLog(filepath.Join(opt.DataDir, "jobs.jsonl"), func(line []byte) {
		var rec jobRecord
		if json.Unmarshal(line, &rec) != nil || rec.ID == "" {
			return // torn or damaged line: the affected job replays as incomplete
		}
		switch rec.Op {
		case "submit":
			subs = append(subs, sub{id: rec.ID, tenant: rec.Tenant, raw: rec.Spec})
		case "done":
			done[rec.ID] = true
		case "lease":
			// Restore epoch high-water marks: the next grant after a restart
			// must fence every worker that was granted before it.
			leaseSeq++
			for _, pt := range rec.Points {
				m := epochs[pt.Job]
				if m == nil {
					m = map[int]int{}
					epochs[pt.Job] = m
				}
				if pt.Epoch > m[pt.Index] {
					m[pt.Index] = pt.Epoch
				}
			}
		}
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	s.jlog = jlog
	s.jobSeq = len(subs)
	s.leaseSeq = leaseSeq

	s.mu.Lock()
	for _, rec := range subs {
		spec, perr := ParseSweepSpec(rec.raw)
		if perr != nil {
			// A logged spec that no longer validates can only come from
			// version skew; there is nothing byte-identical to recover.
			continue
		}
		if done[rec.id] {
			s.reconstructLocked(rec.id, rec.tenant, spec)
			continue
		}
		// Incomplete: resubmit under the original ID, bypassing admission —
		// the job was admitted before the crash, and the result store turns
		// its already-finished points into instant cache hits.
		s.admitLocked(rec.tenant, spec, rec.id, true)
		s.jobsRecovered.Add(1)
	}
	// Leased points recover exactly like queued ones (their jobs had no done
	// record), but their replayed epochs must carry over so post-restart
	// grants out-fence every pre-restart worker.
	if len(epochs) > 0 {
		for _, t := range s.tenants {
			for _, p := range t.queue {
				if e, ok := epochs[p.job.id][p.idx]; ok && e > p.epoch {
					p.epoch = e
				}
			}
		}
	}
	s.unlock()

	if !opt.CoordinatorOnly {
		s.startLocalWorkers()
	}
	s.wg.Add(1)
	go s.leaseReaper()
	if policy.Enabled() {
		if _, err := s.store.Compact(time.Now()); err != nil {
			fmt.Fprintf(os.Stderr, "serve: startup store compaction: %v\n", err)
		}
		s.wg.Add(1)
		go s.compactor()
	}
	return s, nil
}

// compactor periodically applies the store's TTL/size policy so a
// long-running daemon's results.jsonl does not grow without bound.
func (s *Server) compactor() {
	defer s.wg.Done()
	tick := time.NewTicker(s.opt.CompactEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.runCtx.Done():
			return
		case <-tick.C:
			if _, err := s.store.Compact(time.Now()); err != nil {
				fmt.Fprintf(os.Stderr, "serve: store compaction: %v\n", err)
			}
		}
	}
}

// Submit admits one sweep for tenantName, returning the job snapshot. A
// *AdmissionError signals backpressure (429) or drain (503); the caller maps
// it onto the transport.
func (s *Server) Submit(tenantName string, spec SweepSpec) (JobStatus, error) {
	s.mu.Lock()
	defer s.unlock()
	if s.draining {
		return JobStatus{}, &AdmissionError{Reason: "server is draining", Status: 503, RetryAfter: 10 * time.Second}
	}
	n := len(spec.Designs)
	if s.pendingPoints+n > s.opt.MaxQueuedPoints {
		return JobStatus{}, &AdmissionError{
			Reason:     fmt.Sprintf("queue full: %d pending + %d new points exceed the %d bound", s.pendingPoints, n, s.opt.MaxQueuedPoints),
			Status:     429,
			RetryAfter: s.retryAfterLocked(tenantName, n),
		}
	}
	if t := s.tenants[tenantName]; t != nil && t.pending+n > s.opt.TenantMaxQueued {
		return JobStatus{}, &AdmissionError{
			Reason:     fmt.Sprintf("tenant quota: %d pending + %d new points exceed the %d per-tenant bound", t.pending, n, s.opt.TenantMaxQueued),
			Status:     429,
			RetryAfter: s.retryAfterLocked(tenantName, n),
		}
	}
	id := jobID(tenantName, s.jobSeq, spec)
	s.jobSeq++
	// Log the submission before enqueueing (fsynced, under the admission
	// lock): a crash on either side of the write leaves either nothing (the
	// tenant got no 201) or a recoverable incomplete job — never an
	// accepted-and-forgotten one.
	if err := s.jlog.Append(jobRecord{Op: "submit", ID: id, Tenant: tenantName, Spec: spec.Encode()}); err != nil {
		return JobStatus{}, fmt.Errorf("serve: persist submission: %w", err)
	}
	j := s.admitLocked(tenantName, spec, id, false)
	s.jobsSubmitted.Add(1)
	return j.status(false), nil
}

// retryAfterLocked estimates when n points' worth of queue headroom will
// exist, from the observed mean grant-to-completion time of recorded points
// (local or remote; 250ms before the first). Crude by design: the hint
// only needs the right order of magnitude. The base estimate is
// spread by a deterministic per-tenant jitter of up to +25% — a worker
// fleet (or any set of synchronized clients) that all hit 429 in the same
// instant would otherwise obey identical hints and stampede the queue
// again in lockstep.
func (s *Server) retryAfterLocked(tenantName string, n int) time.Duration {
	avg := 250 * time.Millisecond
	if c := s.runCount.Load(); c > 0 {
		avg = time.Duration(s.runNanos.Load() / c)
	}
	backlog := s.pendingPoints + s.leasedPoints + n - s.opt.MaxQueuedPoints
	if backlog < 1 {
		backlog = 1
	}
	d := time.Duration(backlog) * avg / time.Duration(s.opt.Workers)
	if d < time.Second {
		d = time.Second
	}
	if d > 5*time.Minute {
		d = 5 * time.Minute
	}
	// Deterministic per-tenant spread: same tenant, same hint (stable and
	// testable); different tenants de-synchronize.
	d += time.Duration(float64(d) * 0.25 * float64(fnv64(tenantName)%1024) / 1024)
	return d
}

// admitLocked builds the job, completes invalid and already-cached points
// immediately, and enqueues the rest on the tenant's bounded queue. Caller
// holds the mutex. recovered marks a crash-recovery resubmission.
func (s *Server) admitLocked(tenantName string, spec SweepSpec, id string, recovered bool) *job {
	t := s.tenants[tenantName]
	if t == nil {
		t = &tenant{name: tenantName}
		s.tenants[tenantName] = t
		s.order = append(s.order, tenantName)
	}
	pts := spec.Points()
	j := &job{
		id:        id,
		tenant:    tenantName,
		spec:      spec,
		total:     len(spec.Designs),
		keys:      make([]string, len(spec.Designs)),
		recovered: recovered,
		notify:    make(chan struct{}),
	}
	if s.opt.MetricsEvery > 0 {
		j.metrics = newJobMetrics()
	}
	s.jobs[id] = j

	for i, pt := range pts {
		if pt.Err != nil {
			// Invalid point (e.g. node count incompatible with the machine):
			// terminal immediately, exactly like a failed simulation.
			j.results = append(j.results, PointResult{
				Index: i, Design: spec.Designs[i], OK: false, Err: pt.Err.Error(),
			})
			j.terminal++
			j.failed++
			s.pointsFailed.Add(1)
			continue
		}
		j.keys[i] = pt.Key
		p := &point{job: j, idx: i, name: spec.Designs[i], key: pt.Key}
		t.pending++
		s.pendingPoints++
		// A content-addressed hit at admission never occupies a queue slot.
		// Byte-identical to a fresh run by the journal's round-trip guarantee.
		if !s.storeHitLocked(p) {
			t.queue = append(t.queue, p)
		}
	}
	if j.terminal == j.total {
		s.markFinishedLocked(j)
	}
	s.wakeLocked()
	return j
}

// reconstructLocked rebuilds a job that finished before a restart from the
// result store, so status and stream reads keep working across process
// lifetimes. Caller holds the mutex.
func (s *Server) reconstructLocked(id, tenantName string, spec SweepSpec) {
	if s.tenants[tenantName] == nil {
		s.tenants[tenantName] = &tenant{name: tenantName}
		s.order = append(s.order, tenantName)
	}
	j := &job{
		id:        id,
		tenant:    tenantName,
		spec:      spec,
		total:     len(spec.Designs),
		keys:      make([]string, len(spec.Designs)),
		finished:  true,
		recovered: true,
		notify:    make(chan struct{}),
	}
	pts := spec.Points()
	for i, p := range pts {
		pr := PointResult{Index: i, Design: spec.Designs[i]}
		switch {
		case p.Err != nil:
			pr.Err = p.Err.Error()
			j.failed++
		default:
			j.keys[i] = p.Key
			if r, ok := s.store.Peek(p.Key); ok {
				res := r
				pr.OK, pr.Cached, pr.Result = true, true, &res
				j.cached++
			} else if msg, ok := s.store.FailedEntry(p.Key); ok {
				pr.Err = msg
				j.failed++
			} else {
				pr.Err = "result unavailable after restart"
				j.failed++
			}
		}
		j.results = append(j.results, pr)
		j.terminal++
	}
	s.jobs[id] = j
}

// resolveLocked records one terminal point result — cached, recorded,
// failed or quarantined — updates the job's counters and breaker, and wakes
// the job's streamers. It does not touch lease bookkeeping; callers settle
// that first. Caller holds the mutex.
func (s *Server) resolveLocked(p *point, pr PointResult) {
	j := p.job
	t := s.tenants[j.tenant]
	j.results = append(j.results, pr)
	j.terminal++
	t.pending--
	s.pendingPoints--
	switch {
	case pr.OK:
		j.consecFails = 0
		t.completed++
		s.pointsCompleted.Add(1)
		if pr.Cached {
			j.cached++
			s.pointsCached.Add(1)
		}
	case pr.Quarantined:
		j.quarantined++
		s.pointsQuarantined.Add(1)
	default:
		j.failed++
		s.pointsFailed.Add(1)
		j.consecFails++
		if s.opt.BreakerThreshold > 0 && j.consecFails >= s.opt.BreakerThreshold {
			j.tripped = true
		}
	}
	close(j.notify)
	j.notify = make(chan struct{})
	if j.terminal == j.total {
		s.markFinishedLocked(j)
	}
}

// markFinishedLocked marks a job terminal (idempotent), wakes its streamers
// and queues its done record for unlock. Caller holds the mutex.
func (s *Server) markFinishedLocked(j *job) {
	if j.finished {
		return
	}
	j.finished = true
	s.jobsCompleted.Add(1)
	close(j.notify)
	j.notify = make(chan struct{})
	s.done = append(s.done, jobRecord{Op: "done", ID: j.id, Failed: j.failed + j.quarantined})
}

// unlock releases the mutex, then appends (fsynced) the done record of
// every job that finished under it.
func (s *Server) unlock() {
	done := s.done
	s.done = nil
	s.mu.Unlock()
	for _, rec := range done {
		s.jlog.Append(rec)
	}
}

// pushFrontLocked requeues p at the head of its tenant's queue. Caller holds
// the mutex.
func (s *Server) pushFrontLocked(p *point) {
	t := s.tenants[p.job.tenant]
	t.queue = append([]*point{p}, t.queue...)
	s.wakeLocked()
}

// wakeLocked wakes every local worker waiting for an empty grant to change.
// Caller holds the mutex.
func (s *Server) wakeLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// Drain stops admission and dispatch: POSTs and lease requests are rejected
// with 503, queued points stay queued (they recover on restart), and
// in-flight points run to completion. Idempotent.
func (s *Server) Drain() {
	s.drainCancel()
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Close drains and shuts down gracefully: the local workers finish and
// journal their in-flight points and exit, then the logs close. If ctx
// expires first, remaining local points are canceled — they abandon
// un-journaled and re-run byte-identically after a restart.
func (s *Server) Close(ctx context.Context) error {
	s.Drain()
	idle := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(idle)
	}()
	select {
	case <-idle:
	case <-ctx.Done():
	}
	return s.stop()
}

// Kill is the crash drill: cancel everything immediately, no drain. In-
// flight points abandon un-journaled; the fsynced logs stay consistent, so a
// subsequent New on the same DataDir recovers every incomplete job.
func (s *Server) Kill() {
	s.Drain()
	s.stop()
}

func (s *Server) stop() error {
	s.runCancel()
	s.workers.Wait()
	s.wg.Wait()
	err := s.store.Close()
	if cerr := s.jlog.Close(); err == nil {
		err = cerr
	}
	return err
}

// Job returns the status snapshot of one job.
func (s *Server) Job(id string, withResults bool) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return j.status(withResults), true
}

// follow returns the job's results from index `from` on, plus whether the
// job is finished and the channel that signals the next change. Streamers
// loop on it.
func (s *Server) follow(id string, from int) (rows []PointResult, finished bool, ch <-chan struct{}, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, okj := s.jobs[id]
	if !okj {
		return nil, false, nil, false
	}
	if from < len(j.results) {
		rows = append(rows, j.results[from:]...)
	}
	return rows, j.finished, j.notify, true
}

// TenantStatz is one tenant's /statz row.
type TenantStatz struct {
	Pending   int   `json:"pending"`
	InFlight  int   `json:"in_flight"`
	Completed int64 `json:"completed"`
}

// Statz is the operability snapshot served by /statz.
type Statz struct {
	UptimeSeconds  float64 `json:"uptime_seconds"`
	Draining       bool    `json:"draining"`
	Workers        int     `json:"workers"`
	PendingPoints  int     `json:"pending_points"`
	InFlightPoints int     `json:"in_flight_points"`
	MaxQueued      int     `json:"max_queued_points"`

	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsRecovered int64 `json:"jobs_recovered"`
	JobsActive    int   `json:"jobs_active"`

	PointsCompleted   int64   `json:"points_completed"`
	PointsFailed      int64   `json:"points_failed"`
	PointsCached      int64   `json:"points_cached"`
	PointsQuarantined int64   `json:"points_quarantined"`
	PointsPerSecond   float64 `json:"points_per_second"`

	CacheEntries int     `json:"cache_entries"`
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`

	StoreCompactions int64 `json:"store_compactions,omitempty"`
	StoreDropped     int64 `json:"store_dropped,omitempty"`

	// Farm view: the live lease table (InFlightPoints counts the points
	// out under it).
	ActiveLeases   int          `json:"active_leases"`
	LeasesGranted  int64        `json:"leases_granted"`
	LeasesExpired  int64        `json:"leases_expired"`
	LeasesReleased int64        `json:"leases_released"`
	PointsRequeued int64        `json:"points_requeued"`
	PointsPoisoned int64        `json:"points_poisoned"`
	Leases         []LeaseStatz `json:"leases,omitempty"`

	Tenants map[string]TenantStatz `json:"tenants"`
}

// LeaseStatz is one live lease's /statz row.
type LeaseStatz struct {
	ID         string  `json:"id"`
	Worker     string  `json:"worker"`
	Points     int     `json:"points"`
	AgeSeconds float64 `json:"age_seconds"`
	TTLSeconds float64 `json:"ttl_seconds"` // time until expiry absent a heartbeat
}

// Stats builds the /statz snapshot.
func (s *Server) Stats() Statz {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Statz{
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Draining:       s.draining,
		Workers:        s.opt.Workers,
		PendingPoints:  s.pendingPoints,
		InFlightPoints: s.leasedPoints,
		MaxQueued:      s.opt.MaxQueuedPoints,

		JobsSubmitted: s.jobsSubmitted.Load(),
		JobsCompleted: s.jobsCompleted.Load(),
		JobsRecovered: s.jobsRecovered.Load(),

		PointsCompleted:   s.pointsCompleted.Load(),
		PointsFailed:      s.pointsFailed.Load(),
		PointsCached:      s.pointsCached.Load(),
		PointsQuarantined: s.pointsQuarantined.Load(),

		CacheEntries: s.store.Entries(),
		CacheHits:    s.store.Hits(),
		CacheMisses:  s.store.Misses(),

		StoreCompactions: s.store.Compactions(),
		StoreDropped:     s.store.Dropped(),

		ActiveLeases:   len(s.leases),
		LeasesGranted:  s.leasesGranted.Load(),
		LeasesExpired:  s.leasesExpired.Load(),
		LeasesReleased: s.leasesReleased.Load(),
		PointsRequeued: s.pointsRequeued.Load(),
		PointsPoisoned: s.pointsPoisoned.Load(),

		Tenants: map[string]TenantStatz{},
	}
	now := time.Now()
	for _, l := range s.leases {
		st.Leases = append(st.Leases, LeaseStatz{
			ID:         l.id,
			Worker:     l.worker,
			Points:     len(l.points),
			AgeSeconds: now.Sub(l.grantedAt).Seconds(),
			TTLSeconds: l.expires.Sub(now).Seconds(),
		})
	}
	sort.Slice(st.Leases, func(i, k int) bool { return st.Leases[i].ID < st.Leases[k].ID })
	for _, j := range s.jobs {
		if !j.finished {
			st.JobsActive++
		}
	}
	if st.UptimeSeconds > 0 {
		st.PointsPerSecond = float64(st.PointsCompleted) / st.UptimeSeconds
	}
	if probes := st.CacheHits + st.CacheMisses; probes > 0 {
		st.CacheHitRate = float64(st.CacheHits) / float64(probes)
	}
	for name, t := range s.tenants {
		st.Tenants[name] = TenantStatz{Pending: t.pending, InFlight: t.inflight, Completed: t.completed}
	}
	return st
}

// Ready reports whether the server accepts submissions.
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining
}

package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"dcl1sim/internal/gpu"
)

// Job states reported by status snapshots.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
)

// PointResult is one completed sweep point as streamed to the tenant, in
// completion order. Result is the exact gpu.Results value a cold dcl1.Run of
// the point produces — cache hits, restart recovery, and cross-tenant dedupe
// never alter it.
type PointResult struct {
	// Index is the point's position in the spec's design list.
	Index  int    `json:"index"`
	Design string `json:"design"`
	OK     bool   `json:"ok"`
	// Cached marks a result served from the content-addressed store rather
	// than a fresh simulation (byte-identical either way).
	Cached bool `json:"cached,omitempty"`
	// Quarantined marks a point the job's circuit breaker refused to run
	// after consecutive failures.
	Quarantined bool         `json:"quarantined,omitempty"`
	Err         string       `json:"err,omitempty"`
	Result      *gpu.Results `json:"result,omitempty"`
}

// JobStatus is the snapshot served by GET /v1/jobs/{id}.
type JobStatus struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	State  string `json:"state"`
	App    string `json:"app"`

	Total       int  `json:"total"`
	Completed   int  `json:"completed"` // terminal points, successful or not
	Failed      int  `json:"failed"`
	Cached      int  `json:"cached"`
	Quarantined int  `json:"quarantined"`
	InFlight    int  `json:"in_flight"`           // points out under leases
	Recovered   bool `json:"recovered,omitempty"` // resumed after a restart
	BreakerOpen bool `json:"breaker_open,omitempty"`

	Results []PointResult `json:"results,omitempty"`
}

// job is one admitted sweep. All mutable fields are guarded by the server
// mutex; notify is the broadcast channel streamers wait on (closed and
// replaced on every result append).
type job struct {
	id      string
	tenant  string
	spec    SweepSpec
	keys    []string // content address per point index
	total   int      // len(spec.Designs)
	results []PointResult
	// terminal counts points with a result row; the job finishes when it
	// reaches total.
	terminal    int
	failed      int
	cached      int
	quarantined int
	leased      int  // points currently out under leases, local or remote
	consecFails int  // consecutive non-quarantine failures (breaker input)
	tripped     bool // circuit breaker open: pending points quarantine
	finished    bool
	recovered   bool
	notify      chan struct{}
	// metrics fans live metric batches out to /v1/jobs/{id}/metrics
	// streamers; nil when the server runs without MetricsEvery.
	metrics *jobMetrics
}

// status builds a snapshot; caller holds the server mutex. withResults
// controls whether the (possibly large) per-point rows are included.
func (j *job) status(withResults bool) JobStatus {
	st := JobStatus{
		ID:          j.id,
		Tenant:      j.tenant,
		State:       StateQueued,
		App:         j.spec.App,
		Total:       j.total,
		Completed:   j.terminal,
		Failed:      j.failed,
		Cached:      j.cached,
		Quarantined: j.quarantined,
		InFlight:    j.leased,
		Recovered:   j.recovered,
		BreakerOpen: j.tripped,
	}
	switch {
	case j.finished:
		st.State = StateDone
	case j.terminal > 0 || j.leased > 0:
		st.State = StateRunning
	}
	if withResults {
		st.Results = append([]PointResult(nil), j.results...)
	}
	return st
}

// point is one schedulable unit: a single (design, app, config) simulation.
type point struct {
	job  *job
	idx  int
	name string // canonical design name
	key  string // content address

	// Lease state (all guarded by the server mutex):
	epoch  int    // bumped at every grant; completions must echo it (fencing)
	deaths int    // lease expiries while held (poison-point counter)
	lease  *lease // the live lease holding this point, nil otherwise
}

// jobRecord is one line of the job log (jobs.jsonl): a submission, a
// terminal marker, or a farm-lease boundary. A submission without a matching
// done record is an incomplete job — restart recovery resubmits it under the
// same ID, and the content-addressed store turns its already-finished points
// into instant cache hits, so the completed job's output is byte-identical
// to an uninterrupted run's. A lease record (one per grant) restores each
// granted point's epoch high-water mark on replay, fencing workers that
// outlived a server restart. A lease's end is not logged: replay needs only
// the epochs, and every lease dies with the server.
type jobRecord struct {
	Op     string             `json:"op"` // "submit", "done", "lease"
	ID     string             `json:"id"`
	Tenant string             `json:"tenant,omitempty"`
	Spec   json.RawMessage    `json:"spec,omitempty"`
	Failed int                `json:"failed,omitempty"`
	Worker string             `json:"worker,omitempty"`
	Points []leasePointRecord `json:"points,omitempty"`
}

// leasePointRecord pins one granted point's epoch in the job log.
type leasePointRecord struct {
	Job   string `json:"job"`
	Index int    `json:"index"`
	Epoch int    `json:"epoch"`
}

// jobID derives a stable job identity from the submission: tenant, a
// monotonic sequence number (so resubmitting an identical spec yields a new
// job), and the canonical spec bytes. Recovery reads IDs back from the log
// rather than rederiving them, so the scheme can evolve without breaking old
// data directories.
func jobID(tenant string, seq int, spec SweepSpec) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|%d|%s", tenant, seq, spec.Encode())))
	return hex.EncodeToString(h[:6])
}

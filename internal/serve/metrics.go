package serve

import (
	"net/http"
	"sort"
	"sync"

	"dcl1sim/internal/metrics"
)

// metricsRingCap bounds the batches a job retains for live streaming. A
// client that falls more than a ring behind skips ahead to the oldest
// retained batch — the service never buffers without bound.
const metricsRingCap = 512

// jobMetrics fans one job's live metric batches out to HTTP streamers: a
// bounded ring of recent batches (NDJSON/SSE followers) plus the latest
// batch per design (the Prometheus exposition snapshot). It implements
// metrics.Sink; Emit is called from simulation goroutines — possibly several
// concurrently, since a job's points run in parallel — so it locks.
type jobMetrics struct {
	mu     sync.Mutex
	buf    []*metrics.Batch
	start  int64 // global stream index of buf[0]
	latest map[string]*metrics.Batch
	notify chan struct{}
}

func newJobMetrics() *jobMetrics {
	return &jobMetrics{latest: map[string]*metrics.Batch{}, notify: make(chan struct{})}
}

// Emit clones the (reused) batch into the ring and wakes followers.
func (m *jobMetrics) Emit(b *metrics.Batch) {
	c := b.Clone()
	m.mu.Lock()
	m.buf = append(m.buf, c)
	if len(m.buf) > 2*metricsRingCap {
		keep := m.buf[len(m.buf)-metricsRingCap:]
		m.start += int64(len(m.buf) - len(keep))
		m.buf = append(make([]*metrics.Batch, 0, 2*metricsRingCap+1), keep...)
	}
	m.latest[c.Design] = c
	close(m.notify)
	m.notify = make(chan struct{})
	m.mu.Unlock()
}

// follow returns the batches from global index `from` on (clamped to the
// ring), the next index to resume from, and the channel signalling the next
// Emit.
func (m *jobMetrics) follow(from int64) ([]*metrics.Batch, int64, <-chan struct{}) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if from < m.start {
		from = m.start
	}
	end := m.start + int64(len(m.buf))
	var out []*metrics.Batch
	if from < end {
		out = append(out, m.buf[from-m.start:]...)
	}
	return out, end, m.notify
}

// snapshot returns the newest batch of every design, sorted by design name —
// the Prometheus exposition view.
func (m *jobMetrics) snapshot() []*metrics.Batch {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.latest))
	for d := range m.latest {
		names = append(names, d)
	}
	sort.Strings(names)
	out := make([]*metrics.Batch, len(names))
	for i, d := range names {
		out[i] = m.latest[d]
	}
	return out
}

// jobMetricsOf returns a job's metrics fan-out. ok reports whether the job
// exists; a nil jobMetrics with ok=true means collection is disabled.
func (s *Server) jobMetricsOf(id string) (*jobMetrics, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.metrics, true
}

// handleMetrics serves GET /v1/jobs/{id}/metrics.
//
// Without ?follow: the newest batch of every design rendered in the
// Prometheus text exposition format — scrape this mid-run to watch a sweep
// converge. 204 when no batch has landed yet (scrapers retry).
//
// With ?follow=1 (or Accept: text/event-stream): every batch as it lands, as
// NDJSON lines or SSE "metrics" events, ending when the job finishes or the
// client goes away. Each batch carries its design and sample cycle, so one
// stream multiplexes all concurrently running points.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	jm, ok := s.jobMetricsOf(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if jm == nil {
		writeError(w, http.StatusNotFound,
			"live metrics disabled: start the server with -metrics-every > 0")
		return
	}
	sse := wantsSSE(r)
	if r.URL.Query().Get("follow") == "" && !sse {
		batches := jm.snapshot()
		if len(batches) == 0 {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		metrics.WriteProm(w, batches...)
		return
	}

	emit := openStream(w, sse)
	var sent int64
	for {
		batches, next, mch := jm.follow(sent)
		sent = next
		for _, b := range batches {
			if !emit("metrics", b) {
				return
			}
		}
		_, finished, jch, ok := s.follow(id, int(^uint(0)>>1))
		if !ok {
			return
		}
		if finished {
			// Drain anything that landed between the follow and the status
			// check, then end the stream.
			batches, _, _ = jm.follow(sent)
			for _, b := range batches {
				if !emit("metrics", b) {
					return
				}
			}
			return
		}
		select {
		case <-mch:
		case <-jch:
		case <-r.Context().Done():
			return
		}
	}
}

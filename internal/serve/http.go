package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// DefaultTenant is the tenant name used when a request carries no X-Tenant
// header.
const DefaultTenant = "anon"

// Handler returns the service's HTTP API:
//
//	POST /v1/jobs              submit a sweep spec; 201 with the job snapshot,
//	                           400 on a bad spec, 429 + Retry-After under
//	                           backpressure, 503 while draining
//	GET  /v1/jobs/{id}         job status snapshot with per-point results
//	GET  /v1/jobs/{id}/stream  per-point results as they land: NDJSON by
//	                           default, SSE with Accept: text/event-stream
//	GET  /v1/jobs/{id}/metrics live simulation metrics (requires the server's
//	                           -metrics-every): Prometheus text exposition of
//	                           the newest snapshot per design, or every batch
//	                           as NDJSON/SSE with ?follow=1
//	POST /v1/leases                  acquire a batch of points under a lease
//	                                 (farm workers; empty grant = poll later)
//	POST /v1/leases/{id}/heartbeat   renew the lease TTL; 410 once expired
//	POST /v1/leases/{id}/complete    upload point results (idempotent)
//	POST /v1/leases/{id}/release     requeue unstarted points (graceful drain)
//	GET  /healthz              liveness (always 200 while the process serves)
//	GET  /readyz               admission readiness (503 while draining)
//	GET  /statz                operability snapshot (queue depths, cache hit
//	                           rate, per-tenant in-flight, points/s, leases)
//
// When the server is configured with auth tokens, every mutating endpoint
// (POST /v1/jobs and the whole lease surface) requires a bearer token.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/jobs/{id}/metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/leases", s.handleLeaseAcquire)
	mux.HandleFunc("POST /v1/leases/{id}/heartbeat", s.handleLeaseHeartbeat)
	mux.HandleFunc("POST /v1/leases/{id}/complete", s.handleLeaseComplete)
	mux.HandleFunc("POST /v1/leases/{id}/release", s.handleLeaseRelease)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Ready() {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
			return
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	})
	mux.HandleFunc("GET /statz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// tenantOf extracts and validates the honor-system tenant identity, used
// when no auth tokens are configured.
func tenantOf(r *http.Request) (string, error) {
	t := r.Header.Get("X-Tenant")
	if t == "" {
		return DefaultTenant, nil
	}
	if err := validTenant(t); err != nil {
		return "", err
	}
	return t, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenantName, ok := s.authTenant(w, r)
	if !ok {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	spec, err := ParseSweepSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st, err := s.Submit(tenantName, spec)
	if err != nil {
		var ae *AdmissionError
		if errors.As(err, &ae) {
			writeAdmissionError(w, ae)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	writeJSON(w, http.StatusCreated, st)
}

// writeAdmissionError maps an AdmissionError to its HTTP shape: the status
// it names plus a Retry-After hint.
func writeAdmissionError(w http.ResponseWriter, ae *AdmissionError) {
	secs := int(ae.RetryAfter.Seconds())
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, ae.Status, map[string]interface{}{
		"error":               ae.Reason,
		"retry_after_seconds": secs,
	})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Job(r.PathValue("id"), true)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleStream follows a job, emitting one record per completed point in
// completion order, then a terminal summary record. NDJSON by default; SSE
// ("event: point" / "event: done") when the client asks for
// text/event-stream. The stream ends when the job finishes or the client
// goes away; a drain does not cut established streams.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Job(id, false); !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	emit := openStream(w, wantsSSE(r))
	sent := 0
	for {
		rows, finished, ch, ok := s.follow(id, sent)
		if !ok {
			return
		}
		for _, row := range rows {
			if !emit("point", row) {
				return
			}
		}
		sent += len(rows)
		if finished {
			st, _ := s.Job(id, false)
			emit("done", struct {
				Done bool `json:"done"`
				JobStatus
			}{true, st})
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

// wantsSSE reports whether the client asked for Server-Sent Events rather
// than the default NDJSON.
func wantsSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// openStream writes a 200 stream header — SSE or NDJSON — and returns the
// stream's emit: it marshals v, frames it as one NDJSON line or one
// "event:/data:" pair, and flushes. emit reports false once the client is
// gone, ending the follower.
func openStream(w http.ResponseWriter, sse bool) func(event string, v interface{}) bool {
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	return func(event string, v interface{}) bool {
		b, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if sse {
			_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", b)
		}
		if flusher != nil {
			flusher.Flush()
		}
		return err == nil
	}
}

// maxLeaseBodyBytes bounds lease-protocol request bodies. Completion uploads
// carry one gpu.Results per point, so the cap is generous but finite.
const maxLeaseBodyBytes = 64 << 20

// readLeaseBody decodes a lease-protocol JSON body into v, rejecting
// oversized or malformed payloads with 400. An empty body decodes the zero
// value (every lease request has usable defaults).
func readLeaseBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxLeaseBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return false
	}
	if len(body) == 0 {
		return true
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeError(w, http.StatusBadRequest, "bad body: %v", err)
		return false
	}
	return true
}

func (s *Server) handleLeaseAcquire(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authTenant(w, r); !ok {
		return
	}
	var req LeaseRequest
	if !readLeaseBody(w, r, &req) {
		return
	}
	if req.Worker == "" {
		req.Worker = "worker"
	}
	if err := validTenant(req.Worker); err != nil {
		writeError(w, http.StatusBadRequest, "bad worker name: %v", err)
		return
	}
	g, err := s.AcquireLease(req.Worker, req.MaxPoints)
	if err != nil {
		var ae *AdmissionError
		if errors.As(err, &ae) {
			writeAdmissionError(w, ae)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, g)
}

func (s *Server) handleLeaseHeartbeat(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authTenant(w, r); !ok {
		return
	}
	ttl, ok := s.RenewLease(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusGone, "unknown or expired lease %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, HeartbeatResponse{TTLSeconds: ttl.Seconds()})
}

func (s *Server) handleLeaseComplete(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authTenant(w, r); !ok {
		return
	}
	var req CompleteRequest
	if !readLeaseBody(w, r, &req) {
		return
	}
	statuses, err := s.CompleteLeasePoints(r.PathValue("id"), req.Completions)
	if err != nil {
		if errors.Is(err, ErrUnknownLease) {
			writeError(w, http.StatusGone, "unknown or expired lease %q", r.PathValue("id"))
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, CompleteResponse{Statuses: statuses})
}

func (s *Server) handleLeaseRelease(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authTenant(w, r); !ok {
		return
	}
	var req ReleaseRequest
	if !readLeaseBody(w, r, &req) {
		return
	}
	requeued, ok := s.ReleaseLease(r.PathValue("id"), req.Tokens)
	if !ok {
		writeError(w, http.StatusGone, "unknown or expired lease %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, ReleaseResponse{Requeued: requeued})
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dcl1sim/internal/gpu"
)

// TestBackoff pins the retry delay: deterministic per (name, attempt),
// bounded, and never below the server's Retry-After hint.
func TestBackoff(t *testing.T) {
	if a, b := backoff("w0", 0, 0), backoff("w0", 0, 0); a != b {
		t.Errorf("backoff not deterministic: %v vs %v", a, b)
	}
	if d := backoff("w0", 0, 0); d < 200*time.Millisecond || d > 300*time.Millisecond {
		t.Errorf("attempt 0 = %v, want within [200ms, 300ms]", d)
	}
	if d := backoff("w0", 20, 0); d > 5*time.Second+5*time.Second/2 {
		t.Errorf("attempt 20 = %v, want capped at 5s + 50%% jitter", d)
	}
	if d := backoff("w0", 0, 10*time.Second); d != 10*time.Second {
		t.Errorf("hint not honored: %v, want 10s", d)
	}
}

// httpLeases is the lease API over the wire, as a test-side Transport: the
// HTTP handlers' JSON shapes and status codes, with 410 mapped to
// ErrUnknownLease the way farm.Client maps it.
type httpLeases struct{ base string }

func (h httpLeases) post(path string, in, out interface{}) error {
	b, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := http.Post(h.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return json.NewDecoder(resp.Body).Decode(out)
	case http.StatusGone:
		return ErrUnknownLease
	}
	return fmt.Errorf("POST %s: %s", path, resp.Status)
}

func (h httpLeases) Acquire(_ context.Context, worker string, max int) (LeaseGrant, error) {
	var g LeaseGrant
	err := h.post("/v1/leases", LeaseRequest{Worker: worker, MaxPoints: max}, &g)
	return g, err
}

func (h httpLeases) Heartbeat(_ context.Context, id string) (time.Duration, error) {
	var hb HeartbeatResponse
	err := h.post("/v1/leases/"+id+"/heartbeat", struct{}{}, &hb)
	return time.Duration(hb.TTLSeconds * float64(time.Second)), err
}

func (h httpLeases) Complete(_ context.Context, id string, ups []LeaseCompletion) ([]CompletionStatus, error) {
	var cr CompleteResponse
	err := h.post("/v1/leases/"+id+"/complete", CompleteRequest{Completions: ups}, &cr)
	return cr.Statuses, err
}

func (h httpLeases) Release(_ context.Context, id string, tokens []string) (int, error) {
	var rr ReleaseResponse
	err := h.post("/v1/leases/"+id+"/release", ReleaseRequest{Tokens: tokens}, &rr)
	return rr.Requeued, err
}

// TestCompletionFencingTable walks the completion grammar's malformed rows
// through both transports: a success without a result and a token with
// trailing garbage, a sign or a leading zero are all fenced as stale and
// change nothing, while the live and duplicate rows around them keep their
// meaning. A fenced point stays leased and re-runs after expiry.
func TestCompletionFencingTable(t *testing.T) {
	res := gpu.Results{IPC: 1.25}
	for _, tr := range []struct {
		name string
		of   func(t *testing.T, s *Server) Transport
	}{
		{"http", func(t *testing.T, s *Server) Transport {
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(ts.Close)
			return httpLeases{ts.URL}
		}},
		{"in-process", func(t *testing.T, s *Server) Transport { return localTransport{s} }},
	} {
		t.Run(tr.name, func(t *testing.T) {
			s := newFarmServer(t, Options{})
			defer closeServer(t, s)
			api := tr.of(t, s)
			ctx := context.Background()
			st, err := s.Submit("alice", testSpec(t, 0, "Baseline", "Pr4"))
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			g, err := api.Acquire(ctx, "w1", 0)
			if err != nil || len(g.Points) != 2 {
				t.Fatalf("acquire: %v, %+v", err, g)
			}
			p0, p1 := g.Points[0], g.Points[1]
			ok := func(lp LeasePoint) LeaseCompletion {
				return LeaseCompletion{Token: lp.Token, Epoch: lp.Epoch, OK: true, Result: &res}
			}
			empty := func(lp LeasePoint) LeaseCompletion {
				return LeaseCompletion{Token: lp.Token, Epoch: lp.Epoch, OK: true}
			}
			garbage := func(suffix string) LeaseCompletion {
				return LeaseCompletion{Token: st.ID + "/" + suffix, Epoch: p0.Epoch, OK: true, Result: &res}
			}
			for _, row := range []struct {
				name      string
				up        LeaseCompletion
				want      string
				completed int
			}{
				{"ok without result", empty(p0), CompletionStale, 0},
				{"live", ok(p0), CompletionRecorded, 1},
				{"duplicate", ok(p0), CompletionDuplicate, 1},
				{"trailing garbage", garbage("0x"), CompletionStale, 1},
				{"signed index", garbage("+0"), CompletionStale, 1},
				{"leading zero", garbage("00"), CompletionStale, 1},
				{"ok without result on a live point", empty(p1), CompletionStale, 1},
			} {
				sts, err := api.Complete(ctx, g.ID, []LeaseCompletion{row.up})
				if err != nil || len(sts) != 1 {
					t.Fatalf("%s: complete = %v, %v", row.name, sts, err)
				}
				if sts[0].Status != row.want {
					t.Errorf("%s: status %q, want %q", row.name, sts[0].Status, row.want)
				}
				if js, _ := s.Job(st.ID, false); js.Completed != row.completed {
					t.Errorf("%s: job completed %d points, want %d", row.name, js.Completed, row.completed)
				}
			}
			if n := s.Stats().CacheEntries; n != 1 {
				t.Errorf("store holds %d results, want 1 (no zero result stored)", n)
			}
			// The fenced point is still the lease's; on expiry it requeues
			// and re-runs under a bumped epoch.
			s.expireLeases(time.Now().Add(time.Hour))
			g2, err := api.Acquire(ctx, "w2", 0)
			if err != nil || len(g2.Points) != 1 || g2.Points[0].Token != p1.Token || g2.Points[0].Epoch != p1.Epoch+1 {
				t.Fatalf("re-grant after expiry = %+v, %v; want %s at epoch %d", g2, err, p1.Token, p1.Epoch+1)
			}
			if sts, err := api.Complete(ctx, g2.ID, []LeaseCompletion{ok(g2.Points[0])}); err != nil || sts[0].Status != CompletionRecorded {
				t.Fatalf("re-run upload = %v, %v", sts, err)
			}
			if js := waitJob(t, s, st.ID); js.Failed != 0 || js.Completed != 2 {
				t.Errorf("final job = %+v", js)
			}
		})
	}
}

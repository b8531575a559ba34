// Package farm is the remote half of the distributed sweep farm: a typed
// HTTP client for the dcl1serve lease protocol (a serve.Transport) and a
// Worker that runs serve's lease worker — the same point lifecycle the
// server's local workers run in process — over it. The package never bends
// the model: a point computed here is the same deterministic simulation the
// server would run locally, so the server's content-addressed store makes
// every upload idempotent. See DESIGN.md §17.
package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"dcl1sim/internal/serve"
)

// ErrLeaseLost marks a 410 from the server: the lease expired, was fenced,
// or predates a server restart. It is serve.ErrUnknownLease, the one
// sentinel both transports report; the worker abandons the lease's points —
// the server has already requeued or reassigned them.
var ErrLeaseLost = serve.ErrUnknownLease

// TransientError wraps a retryable failure — a network error, a 429, a 503,
// or any other 5xx — with the server's backoff hint when it sent one. The
// worker retries these with jittered exponential backoff; anything else is
// permanent.
type TransientError = serve.TransientError

// Client speaks the dcl1serve lease protocol. The zero HTTP client gets a
// sane default timeout; Token, when set, is sent as a bearer token on every
// request (required when the server runs with -auth-tokens).
type Client struct {
	Base  string // server base URL, e.g. http://127.0.0.1:8080
	Token string
	HTTP  *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// do runs one JSON round-trip. in == nil sends an empty body; out == nil
// discards the response body. Status mapping: 2xx decodes, 410 is
// ErrLeaseLost, 429/5xx (and transport errors) are TransientError, anything
// else is a permanent error carrying the server's JSON error text.
func (c *Client) do(ctx context.Context, op, method, path string, in, out interface{}) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("farm: %s: encode request: %w", op, err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return fmt.Errorf("farm: %s: build request: %w", op, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return &TransientError{Op: op, Err: err}
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		if out == nil {
			io.Copy(io.Discard, resp.Body)
			return nil
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return &TransientError{Op: op, Err: fmt.Errorf("decode response: %w", err)}
		}
		return nil
	case resp.StatusCode == http.StatusGone:
		io.Copy(io.Discard, resp.Body)
		return ErrLeaseLost
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
		return &TransientError{Op: op, RetryAfter: retryAfterOf(resp), Err: fmt.Errorf("server said %s: %s", resp.Status, errText(resp.Body))}
	default:
		return fmt.Errorf("farm: %s: server said %s: %s", op, resp.Status, errText(resp.Body))
	}
}

// retryAfterOf parses the Retry-After header (seconds form only).
func retryAfterOf(resp *http.Response) time.Duration {
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}

// errText extracts the server's {"error": ...} body, degrading to the raw
// text for non-JSON responses.
func errText(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(bytes.TrimSpace(b))
}

// Acquire requests a lease over up to max points (0 = server default). An
// empty grant (no ID) means nothing is pending; poll again after the grant's
// PollAfterSeconds.
func (c *Client) Acquire(ctx context.Context, worker string, max int) (serve.LeaseGrant, error) {
	var g serve.LeaseGrant
	err := c.do(ctx, "acquire lease", http.MethodPost, "/v1/leases",
		serve.LeaseRequest{Worker: worker, MaxPoints: max}, &g)
	return g, err
}

// Heartbeat renews the lease, returning the fresh TTL. ErrLeaseLost means
// the lease is gone and its points have been requeued or reassigned.
func (c *Client) Heartbeat(ctx context.Context, id string) (time.Duration, error) {
	var hb serve.HeartbeatResponse
	if err := c.do(ctx, "heartbeat", http.MethodPost, "/v1/leases/"+id+"/heartbeat", nil, &hb); err != nil {
		return 0, err
	}
	return time.Duration(hb.TTLSeconds * float64(time.Second)), nil
}

// Complete uploads point results against the lease, returning one status per
// completion (recorded, duplicate, or stale).
func (c *Client) Complete(ctx context.Context, id string, ups []serve.LeaseCompletion) ([]serve.CompletionStatus, error) {
	var cr serve.CompleteResponse
	if err := c.do(ctx, "upload results", http.MethodPost, "/v1/leases/"+id+"/complete",
		serve.CompleteRequest{Completions: ups}, &cr); err != nil {
		return nil, err
	}
	return cr.Statuses, nil
}

// Release requeues the named unresolved points (all of them when tokens is
// empty) — the graceful-drain half of the protocol.
func (c *Client) Release(ctx context.Context, id string, tokens []string) (int, error) {
	var rr serve.ReleaseResponse
	if err := c.do(ctx, "release lease", http.MethodPost, "/v1/leases/"+id+"/release",
		serve.ReleaseRequest{Tokens: tokens}, &rr); err != nil {
		return 0, err
	}
	return rr.Requeued, nil
}

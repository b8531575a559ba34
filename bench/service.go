package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"dcl1sim/internal/farm"
	"dcl1sim/internal/gpu"
	"dcl1sim/internal/serve"
)

// serviceFixture is the service workload's set-up: the four sweep specs, and
// for every valid point the reference answer of a direct gpu run (computed
// once, here) that every served row — cold, cached or farmed — must equal
// byte for byte.
type serviceFixture struct {
	sc     scale
	specs  []serve.SweepSpec
	pts    [][]*point // [spec][design index]; nil = skipped (invalid here)
	valid  int
	runDir string

	// What the reference runs observed at the gpu boundary, per valid point.
	buildMs, runMs []float64
	directTotal    time.Duration
	counts         layerCounts
}

func newServiceFixture(sc scale, seed uint64, runDir string) (*serviceFixture, error) {
	f := &serviceFixture{sc: sc, runDir: runDir}
	for _, app := range serviceApps {
		spec := sc.Quick
		spec.App, spec.Designs, spec.Seed = app, append([]string(nil), serviceDesigns...), seed
		// Round-trip through the public parser: the server canonicalises a
		// POSTed spec the same way, so the fixture sees the same design names.
		spec, err := serve.ParseSweepSpec(spec.Encode())
		if err != nil {
			return nil, err
		}
		jobs, errs := spec.Jobs()
		pts := make([]*point, len(jobs))
		for i, job := range jobs {
			if errs[i] != nil {
				// Skip, never pass: the design does not fit this machine (only
				// on the smoke machine). A zero gpu.Job must not reach the gpu
				// package — see README.md, "Known trap".
				continue
			}
			id := app + "/" + spec.Designs[i]
			t0 := time.Now()
			sys, err := gpu.NewSystemChecked(job.Cfg, job.D, job.App)
			t1 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", id, err)
			}
			r, err := sys.RunChecked(gpu.HealthOptions{})
			t2 := time.Now()
			if err := checkResults(job, r, err); err != nil {
				return nil, fmt.Errorf("reference %s: %w", id, err)
			}
			pts[i] = &point{ID: id, Job: job, Ref: resultsJSON(r), Res: r}
			f.valid++
			f.counts.ResultsJSONBytes += len(pts[i].Ref)
			f.buildMs = append(f.buildMs, ms(t1.Sub(t0)))
			f.runMs = append(f.runMs, ms(t2.Sub(t1)))
			f.directTotal += t2.Sub(t0)
			f.counts.add(countsOf(sys, r))
		}
		f.specs, f.pts = append(f.specs, spec), append(f.pts, pts)
	}
	if f.valid == 0 {
		return nil, fmt.Errorf("no valid service points")
	}
	return f, nil
}

// firstPoint is the fixture's first valid point (T-AlexNet on Baseline at
// full scale), the one the single-point rigs use.
func (f *serviceFixture) firstPoint() *point {
	for _, pts := range f.pts {
		for _, p := range pts {
			if p != nil {
				return p
			}
		}
	}
	panic("service fixture with no valid point") // newServiceFixture rejects it
}

// withServer runs fn against a fresh in-process server behind httptest and
// tears both down. It returns the time spent constructing and closing the
// server, which is outside every timed region.
func (f *serviceFixture) withServer(opt serve.Options, wrap func(http.Handler) http.Handler,
	fn func(srv *serve.Server, cl serviceClient) error) (lifecycle time.Duration, err error) {
	dir, err := os.MkdirTemp(f.runDir, "srv-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	opt.DataDir = dir
	t0 := time.Now()
	srv, err := serve.New(opt)
	if err != nil {
		return 0, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	lifecycle = time.Since(t0)

	// One pass is a second or two; the deadline only keeps a wedged server
	// from hanging the run past the driver's patience.
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	err = fn(srv, serviceClient{c: ts.Client(), base: ts.URL, ctx: ctx})
	cancel()

	t1 := time.Now()
	ts.Close()
	ctx, cancel = context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if cerr := srv.Close(ctx); err == nil && cerr != nil {
		err = fmt.Errorf("close server: %w", cerr)
	}
	return lifecycle + time.Since(t1), err
}

// passTimeout bounds everything one server lives through.
const passTimeout = 100 * time.Second

// serviceClient is the benchmark's one HTTP client; ctx ends its requests.
type serviceClient struct {
	c    *http.Client
	base string
	ctx  context.Context
}

func (cl serviceClient) do(method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(cl.ctx, method, cl.base+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return cl.c.Do(req)
}

func (cl serviceClient) post(spec serve.SweepSpec) (serve.JobStatus, error) {
	var st serve.JobStatus
	resp, err := cl.do(http.MethodPost, "/v1/jobs", bytes.NewReader(spec.Encode()))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) // error text only
		return st, fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("POST /v1/jobs: decode: %w", err)
	}
	return st, nil
}

// streamRow is one NDJSON line of GET /v1/jobs/{id}/stream: a point row, or
// the terminal summary (Done).
type streamRow struct {
	Done   bool            `json:"done"`
	Index  int             `json:"index"`
	OK     bool            `json:"ok"`
	Err    string          `json:"err"`
	Result json.RawMessage `json:"result"`
}

// follow reads job id's stream to its done record, checking every row of a
// valid point against the reference. It returns the time the first row
// arrived, how many of the spec's valid points failed (errored, differed, or
// never arrived) with the first such failure in why, and in err only protocol
// trouble.
func (f *serviceFixture) follow(cl serviceClient, id string, si int) (first time.Time, failed int, why, err error) {
	resp, err := cl.do(http.MethodGet, "/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return first, 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return first, 0, nil, fmt.Errorf("GET stream %s: %s", id, resp.Status)
	}
	pts := f.pts[si]
	passed := make([]bool, len(pts))
	rd := bufio.NewReader(resp.Body)
	for {
		line, rerr := rd.ReadBytes('\n')
		if len(line) > 0 {
			if first.IsZero() {
				first = time.Now()
			}
			var row streamRow
			if err := json.Unmarshal(line, &row); err != nil {
				return first, 0, nil, fmt.Errorf("stream %s: bad row: %w", id, err)
			}
			if row.Done {
				break
			}
			if row.Index < 0 || row.Index >= len(pts) || pts[row.Index] == nil {
				continue // a skipped (invalid) design's error row
			}
			switch p := pts[row.Index]; {
			case !row.OK:
				why = fmt.Errorf("%s: %s", p.ID, row.Err)
			case !bytes.Equal(row.Result, p.Ref):
				why = fmt.Errorf("%s: served result differs from the direct run", p.ID)
			default:
				passed[row.Index] = true
			}
		}
		if rerr != nil {
			return first, 0, nil, fmt.Errorf("stream %s ended before done: %w", id, rerr)
		}
	}
	for i, p := range pts {
		if p != nil && !passed[i] {
			failed++
			if why == nil {
				why = fmt.Errorf("%s: no result row", p.ID)
			}
		}
	}
	return first, failed, why, nil
}

// passResult is one submit-everything-and-follow-to-done pass.
type passResult struct {
	Start, End    time.Time // first POST, last done
	SubmitMs      []float64 // POST -> 201, per job
	FirstResultMs []float64 // POST -> first NDJSON row, per job
	JobMs         []float64 // POST -> done, per job
	Failed        int
	Why           error // the first failed point, when Failed > 0
}

// runJobs POSTs the four specs over HTTP, then follows the four NDJSON
// streams concurrently to their done records (one client, four open
// streams). between, when set, runs after the last POST and before the
// follows, with each job's ID and root span — the farm pass starts its
// workers there; its error aborts the pass before any stream is followed. A
// failed point is counted, not fatal; only a protocol error aborts the pass.
func (f *serviceFixture) runJobs(cl serviceClient, tr *tracer, between func(ids []string, roots []int) error) (passResult, error) {
	n := len(f.specs)
	res := passResult{Start: time.Now(), SubmitMs: make([]float64, n), FirstResultMs: make([]float64, n), JobMs: make([]float64, n)}
	ids := make([]string, n)
	posted := make([]time.Time, n)
	accepted := make([]time.Time, n)
	roots := make([]int, n)
	for i, spec := range f.specs {
		posted[i] = time.Now()
		roots[i] = tr.begin("job", -1, spec.App, posted[i])
		st, err := cl.post(spec)
		if err != nil {
			return res, err
		}
		accepted[i] = time.Now()
		ids[i] = st.ID
		tr.add("serve.submit", roots[i], spec.App, posted[i], accepted[i])
		res.SubmitMs[i] = ms(accepted[i].Sub(posted[i]))
	}
	if between != nil {
		if err := between(ids, roots); err != nil {
			return res, err
		}
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i := range f.specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			first, failed, why, err := f.follow(cl, ids[i], i)
			done := time.Now()
			if first.IsZero() {
				first = done
			}
			app := f.specs[i].App
			tr.add("serve.first_result", roots[i], app, accepted[i], first)
			tr.add("serve.stream", roots[i], app, first, done)
			tr.end(roots[i], done)
			mu.Lock()
			defer mu.Unlock()
			res.FirstResultMs[i] = ms(first.Sub(posted[i]))
			res.JobMs[i] = ms(done.Sub(posted[i]))
			res.Failed += failed
			if res.Why == nil {
				res.Why = why
			}
			if done.After(res.End) {
				res.End = done
			}
			if firstErr == nil {
				firstErr = err
			}
		}(i)
	}
	wg.Wait()
	return res, firstErr
}

// serviceRunner is the service-smallpoints workload: one iteration is a cold
// pass of the 48 points through a fresh server.
type serviceRunner struct {
	f *serviceFixture
}

func (s *serviceRunner) iterate(tr *tracer) (iterResult, error) {
	var pass passResult
	_, err := s.f.withServer(serve.Options{Workers: runtime.NumCPU()}, nil,
		func(_ *serve.Server, cl serviceClient) (err error) {
			pass, err = s.f.runJobs(cl, tr, nil)
			return err
		})
	res := iterResult{Elapsed: pass.End.Sub(pass.Start), Attempted: s.f.valid, Failed: pass.Failed}
	if err != nil {
		return res, err
	}
	if pass.Failed > 0 {
		return res, fmt.Errorf("%d of %d served points failed their checks, first: %w", pass.Failed, s.f.valid, pass.Why)
	}
	return res, nil
}

func (s *serviceRunner) kcycles() float64 {
	q := s.f.sc.Quick
	return float64(s.f.valid) * float64(q.Warmup+q.Cycles) / 1000
}
func (s *serviceRunner) points() int { return s.f.valid }
func (s *serviceRunner) digest() string {
	var refs [][]byte
	for _, pts := range s.f.pts {
		for _, p := range pts {
			if p != nil {
				refs = append(refs, p.Ref)
			}
		}
	}
	return digestOf(refs...)
}

// view: 48 different points, each built and run once in set-up, so the median
// point stands for the workload and the counts are summed over all of them.
func (s *serviceRunner) view(float64) layerView {
	f := s.f
	return layerView{BuildMs: median(f.buildMs), RunMs: median(f.runMs), Counts: f.counts,
		PointNs: float64(f.directTotal.Nanoseconds()), Job: f.firstPoint().Job}
}

// leaseTap records the farm's spans from the server side of the lease
// protocol, wrapped around the public handler: farm.acquire is a grant
// request, farm.complete a result upload, and farm.run the gap between them
// on one lease (a worker runs a lease's points one after another). The
// worker itself (farm.Worker) has no seam to time from outside.
type leaseTap struct {
	tr    *tracer
	roots map[string]int // job ID -> root span

	mu   sync.Mutex
	last map[string]time.Time // lease ID -> end of its latest request
}

// bodyRecorder keeps a copy of the response body so the tap can read the
// grant the server wrote.
type bodyRecorder struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (r *bodyRecorder) Write(p []byte) (int, error) {
	r.buf.Write(p)
	return r.ResponseWriter.Write(p)
}

func (t *leaseTap) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path := r.URL.Path
		switch {
		case r.Method == http.MethodPost && path == "/v1/leases":
			rec := &bodyRecorder{ResponseWriter: w}
			t0 := time.Now()
			h.ServeHTTP(rec, r)
			t1 := time.Now()
			var g serve.LeaseGrant
			if json.Unmarshal(rec.buf.Bytes(), &g) == nil && g.ID != "" && len(g.Points) > 0 {
				t.tr.add("farm.acquire", t.roots[g.Points[0].Job], g.ID, t0, t1)
				t.mu.Lock()
				t.last[g.ID] = t1
				t.mu.Unlock()
			}
		case r.Method == http.MethodPost && strings.HasSuffix(path, "/complete"):
			id := strings.TrimSuffix(strings.TrimPrefix(path, "/v1/leases/"), "/complete")
			body, _ := io.ReadAll(r.Body) // a short read fails the handler's own decode
			r.Body = io.NopCloser(bytes.NewReader(body))
			var req serve.CompleteRequest
			token := id
			if json.Unmarshal(body, &req) == nil && len(req.Completions) > 0 {
				token = req.Completions[0].Token
			}
			jobID, _, _ := strings.Cut(token, "/")
			t0 := time.Now()
			t.mu.Lock()
			prev, ok := t.last[id]
			t.mu.Unlock()
			if ok {
				t.tr.add("farm.run", t.roots[jobID], token, prev, t0)
			}
			h.ServeHTTP(w, r)
			t1 := time.Now()
			t.tr.add("farm.complete", t.roots[jobID], token, t0, t1)
			t.mu.Lock()
			t.last[id] = t1
			t.mu.Unlock()
		default:
			h.ServeHTTP(w, r)
		}
	})
}

// farmResult is one pass of the 48 points through a coordinator-only server
// and nproc in-process farm workers.
type farmResult struct {
	Elapsed                  time.Duration // worker start -> all jobs done
	Failed                   int
	Leases, Duplicates, Lost int
}

// leasePoints is the farm pass's grant size: small enough that nproc workers
// share the 48 points (the default grant of 64 would hand them all to the
// first worker), and a divisor of 12 so no lease straddles two jobs.
const leasePoints = 4

func (f *serviceFixture) farmPass(tr *tracer) (farmResult, error) {
	var out farmResult
	tap := &leaseTap{tr: tr, roots: map[string]int{}, last: map[string]time.Time{}}
	_, err := f.withServer(serve.Options{CoordinatorOnly: true}, tap.wrap,
		func(srv *serve.Server, cl serviceClient) error {
			// Submit first, start the workers after: idle polling is not timed.
			// Cancelling ctx drains the workers; a worker that gives up with a
			// protocol error also ends the pass instead of leaving the stream
			// followers waiting for points nobody will compute.
			ctx, cancel := context.WithCancel(cl.ctx)
			defer cancel()
			cl.ctx = ctx
			workers := make([]*farm.Worker, runtime.NumCPU())
			var wg sync.WaitGroup
			var started time.Time
			var werr error
			var once sync.Once
			start := func(ids []string, roots []int) error {
				for i, id := range ids {
					tap.roots[id] = roots[i]
				}
				started = time.Now()
				for i := range workers {
					workers[i] = farm.New(farm.Options{Server: cl.base, Name: fmt.Sprintf("w%d", i), MaxPoints: leasePoints})
					wg.Add(1)
					go func(w *farm.Worker) {
						defer wg.Done()
						if err := w.Run(ctx); err != nil {
							once.Do(func() { werr = err })
							cancel()
						}
					}(workers[i])
				}
				return nil
			}
			pass, err := f.runJobs(cl, tr, start)
			cancel()
			wg.Wait()
			if werr != nil {
				return werr
			}
			if err != nil {
				return err
			}
			out.Elapsed, out.Failed = pass.End.Sub(started), pass.Failed
			for _, w := range workers {
				st := w.Stats()
				out.Leases += st.Leases
				out.Duplicates += st.Duplicates
				out.Lost += st.LeasesLost + st.Stale
			}
			sz := srv.Stats()
			out.Lost += int(sz.PointsRequeued + sz.PointsPoisoned + sz.LeasesExpired)
			return nil
		})
	return out, err
}

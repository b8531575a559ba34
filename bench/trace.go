package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the benchmark
// around its calls into the simulator (never from inside it). Spans of one
// point share PointID; Parent is the ID of the span that caused this one, or
// -1 for a root ("point" on sim-* workloads, "job" on the service ones).
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	PointID string `json:"point_id"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced path runs the same code with no recording cost.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished interval and returns its span ID (-1 when tracing
// is off).
func (t *tracer) add(name string, parent int, point string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Name: name, Parent: parent, PointID: point,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// begin opens a span whose end is set later by end; used for roots, whose
// children need the ID before the root finishes.
func (t *tracer) begin(name string, parent int, point string, start time.Time) int {
	return t.add(name, parent, point, start, start)
}

func (t *tracer) end(id int, at time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].EndNs = at.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// finish returns the recorded spans with every child fitted inside its
// parent. Client-side roots and the server-side lease tap read the clock on
// different goroutines, so a child can overhang its parent's end by the few
// microseconds between "the server marked the job done" and "the handler
// returned"; the root is what the client observed, so the child is clipped.
func (t *tracer) finish() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	for i := range out { // parents precede children: IDs are creation order
		s := &out[i]
		if s.Parent < 0 {
			continue
		}
		p := out[s.Parent]
		s.StartNs = min(max(s.StartNs, p.StartNs), p.EndNs)
		s.EndNs = min(max(s.EndNs, s.StartNs), p.EndNs)
	}
	return out
}

// selfStat aggregates the spans of one name.
type selfStat struct {
	Name    string
	Count   int
	TotalNs int64
	SelfNs  int64
}

// selfTimes computes, per span name, total time and self time: a span's
// duration minus the part of its interval that its child spans cover
// (overlapping children are counted once).
func selfTimes(spans []span) []selfStat {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*selfStat{}
	var order []string
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfStat{Name: s.Name}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		dur := s.EndNs - s.StartNs
		st.Count++
		st.TotalNs += dur
		st.SelfNs += dur - covered(children[s.ID], s.StartNs, s.EndNs)
	}
	out := make([]selfStat, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// covered returns the length of the union of the kids' intervals, clipped to
// [lo, hi].
func covered(kids []span, lo, hi int64) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total int64
	at := lo
	for _, k := range kids {
		s, e := max(k.StartNs, at), min(k.EndNs, hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Host     hostStamp  `json:"host"`
	Spans    []span     `json:"spans"`
	Self     []selfStat `json:"self_times"`
}

func writeTrace(path string, tf traceFile) error {
	b, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

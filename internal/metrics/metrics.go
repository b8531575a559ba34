// Package metrics is the simulator's streaming-measurement layer: components
// register typed series (counters, gauges, histograms) under stable
// component/clock-domain/name identifiers at build time, and a collector
// samples the whole registry at deterministic cycle points, feeding live
// sinks (NDJSON dumps, the dcl1serve Prometheus endpoint) and control loops
// (the power-capping governor).
//
// The design constraints, in order:
//
//   - Determinism. Registration happens during system build, so series order
//     is the build order — identical for identical configurations. Sampling
//     happens only inside clock-barrier tasks, which run after every
//     component of the edge has ticked and the ports have committed, so a
//     snapshot reads post-edge state and lands on the same cycles in
//     fast-path and legacy-tick execution.
//
//   - Zero cost when dark. Series are closures over fields the components
//     already maintain; registering them adds no work to tick paths. Without
//     a collector attached nothing is ever sampled.
//
//   - No retention. Snapshot buffers are reused; sinks must copy (or
//     serialize) during Emit. Batch.Clone exists for sinks that keep state.
package metrics

import (
	"fmt"
	"strings"

	"dcl1sim/internal/stats"
)

// Kind discriminates series types.
type Kind uint8

const (
	// KindCounter is a monotonically non-decreasing cumulative count.
	KindCounter Kind = iota
	// KindGauge is an instantaneous level that can move both ways.
	KindGauge
	// KindHistogram is a log2-bucketed sample distribution (stats.Histogram),
	// exposed as count/sum plus interpolated p50/p99.
	KindHistogram
)

// String returns the Prometheus-facing type name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "summary"
	}
}

// MarshalJSON writes the kind's wire name ("counter", "gauge", "histogram")
// so NDJSON streams are self-describing rather than carrying a bare enum.
func (k Kind) MarshalJSON() ([]byte, error) {
	switch k {
	case KindGauge:
		return []byte(`"gauge"`), nil
	case KindHistogram:
		return []byte(`"histogram"`), nil
	default:
		return []byte(`"counter"`), nil
	}
}

// UnmarshalJSON accepts the wire names, plus bare enum integers for streams
// written before the names existed.
func (k *Kind) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"counter"`, "0":
		*k = KindCounter
	case `"gauge"`, "1":
		*k = KindGauge
	case `"histogram"`, "2":
		*k = KindHistogram
	default:
		return fmt.Errorf("metrics: unknown series kind %s", b)
	}
	return nil
}

// Series is one registered metric stream. Exactly one of Int, Float, or Hist
// is set, matching Kind. The sampling closures are read only from clock
// barriers (serially); they must be cheap and must not allocate.
type Series struct {
	// Comp identifies the component instance ("core-3", "l1-0", "mc-7").
	Comp string
	// Domain is the clock domain the component ticks in ("core", "noc1",
	// "noc2", "mem").
	Domain string
	// Name is the family name, snake_case with a unit suffix
	// ("core_instructions_total", "power_zone_watts").
	Name string
	// Help is a one-line description for exposition.
	Help string

	Kind  Kind
	Int   func() int64
	Float func() float64
	Hist  *stats.Histogram

	id string // Comp + "/" + Domain + "/" + Name, precomputed
}

// ID returns the stable series identifier component/domain/name.
func (s *Series) ID() string { return s.id }

// Registry holds the build-time series list. It is populated while a system
// is wired (single goroutine) and read only from barrier tasks afterwards,
// so it needs no locking. Registration order is the deterministic sample
// order.
type Registry struct {
	series []*Series
	ids    map[string]struct{}

	// byName indexes series by family name, built lazily on the first family
	// query and invalidated by add. It turns the end-of-run collect walk (a
	// few dozen family queries) from O(families × series) into O(series +
	// touched members).
	byName map[string][]*Series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ids: make(map[string]struct{})}
}

func (r *Registry) add(s *Series) {
	s.id = s.Comp + "/" + s.Domain + "/" + s.Name
	if _, dup := r.ids[s.id]; dup {
		panic(fmt.Sprintf("metrics: duplicate series %q", s.id))
	}
	r.ids[s.id] = struct{}{}
	r.series = append(r.series, s)
	r.byName = nil
}

// family returns the series registered under name, in registration order.
func (r *Registry) family(name string) []*Series {
	if r.byName == nil {
		r.byName = make(map[string][]*Series)
		for _, s := range r.series {
			r.byName[s.Name] = append(r.byName[s.Name], s)
		}
	}
	return r.byName[name]
}

// Counter registers a cumulative counter sampled through fn.
func (r *Registry) Counter(comp, domain, name, help string, fn func() int64) {
	r.add(&Series{Comp: comp, Domain: domain, Name: name, Help: help, Kind: KindCounter, Int: fn})
}

// Gauge registers an instantaneous level sampled through fn.
func (r *Registry) Gauge(comp, domain, name, help string, fn func() float64) {
	r.add(&Series{Comp: comp, Domain: domain, Name: name, Help: help, Kind: KindGauge, Float: fn})
}

// Histogram registers a live histogram; snapshots read it in place.
func (r *Registry) Histogram(comp, domain, name, help string, h *stats.Histogram) {
	r.add(&Series{Comp: comp, Domain: domain, Name: name, Help: help, Kind: KindHistogram, Hist: h})
}

// Len returns the number of registered series.
func (r *Registry) Len() int { return len(r.series) }

// Series returns the registered series in registration order. The slice is
// shared; callers must not mutate it.
func (r *Registry) Series() []*Series { return r.series }

// Total sums every counter registered under the family name.
func (r *Registry) Total(name string) int64 {
	var sum int64
	for _, s := range r.family(name) {
		if s.Kind == KindCounter {
			sum += s.Int()
		}
	}
	return sum
}

// Ints returns the values of every counter family member in registration
// order (one per registered component). It allocates and is meant for
// end-of-run views, not sampling paths.
func (r *Registry) Ints(name string) []int64 {
	var out []int64
	for _, s := range r.family(name) {
		if s.Kind == KindCounter {
			out = append(out, s.Int())
		}
	}
	return out
}

// GaugeMax returns the maximum current value over the gauge family, or 0
// when the family is empty.
func (r *Registry) GaugeMax(name string) float64 {
	m := 0.0
	for _, s := range r.family(name) {
		if s.Kind == KindGauge {
			if v := s.Float(); v > m {
				m = v
			}
		}
	}
	return m
}

// MergedHistogram folds every histogram family member into one distribution.
func (r *Registry) MergedHistogram(name string) stats.Histogram {
	var h stats.Histogram
	for _, s := range r.family(name) {
		if s.Kind == KindHistogram {
			h.Merge(s.Hist)
		}
	}
	return h
}

// Sample evaluates every series into b, reusing its buffers. Callers own b
// and must not hold references across calls. Sample runs only on the engine
// goroutine (barrier context), so it takes no locks.
func (r *Registry) Sample(b *Batch) {
	if cap(b.Samples) < len(r.series) {
		b.Samples = make([]Sample, len(r.series))
	}
	b.Samples = b.Samples[:len(r.series)]
	for i, s := range r.series {
		out := &b.Samples[i]
		out.ID = s.id
		out.Kind = s.Kind
		out.Count, out.Sum, out.P50, out.P99 = 0, 0, 0, 0
		switch s.Kind {
		case KindCounter:
			out.Value = float64(s.Int())
		case KindGauge:
			out.Value = s.Float()
		case KindHistogram:
			out.Value = s.Hist.Mean()
			out.Count = s.Hist.Count()
			out.Sum = s.Hist.Sum()
			out.P50 = s.Hist.Percentile(50)
			out.P99 = s.Hist.Percentile(99)
		}
	}
}

// Sample is one series observation inside a Batch. Counters carry the
// cumulative total in Value; gauges the level; histograms the mean in Value
// plus count/sum and interpolated percentiles.
type Sample struct {
	ID    string  `json:"id"`
	Kind  Kind    `json:"kind"`
	Value float64 `json:"value"`
	Count int64   `json:"count,omitempty"`
	Sum   int64   `json:"sum,omitempty"`
	P50   int64   `json:"p50,omitempty"`
	P99   int64   `json:"p99,omitempty"`
}

// Batch is one synchronized snapshot of the whole registry, stamped with the
// core-clock cycle and simulated time it was taken at.
type Batch struct {
	// Design and App label the run the batch belongs to.
	Design string `json:"design"`
	App    string `json:"app"`
	// Cycle is the core-clock cycle of the sample point; TimePs the
	// simulated time in picoseconds.
	Cycle  int64 `json:"cycle"`
	TimePs int64 `json:"time_ps"`
	// Final marks the end-of-run flush batch.
	Final   bool     `json:"final,omitempty"`
	Samples []Sample `json:"samples"`
}

// Clone deep-copies the batch so a sink can retain it past Emit.
func (b *Batch) Clone() *Batch {
	c := *b
	c.Samples = make([]Sample, len(b.Samples))
	copy(c.Samples, b.Samples)
	return &c
}

// SplitID splits a series identifier into component, domain, and name.
func SplitID(id string) (comp, domain, name string) {
	comp, rest, ok := strings.Cut(id, "/")
	if !ok {
		return "", "", id
	}
	domain, name, ok = strings.Cut(rest, "/")
	if !ok {
		return comp, "", rest
	}
	return comp, domain, name
}

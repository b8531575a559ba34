package metrics

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"

	"dcl1sim/internal/sim"
)

// DefaultEvery is the default sampling period in core cycles.
const DefaultEvery = 4096

// Options configures live metrics collection for one run.
type Options struct {
	// Every is the sampling period in core-clock cycles (0 selects
	// DefaultEvery). Samples land exactly on multiples of Every from the
	// start of the run, with the fast path on or off.
	Every int64
	// Sink receives each snapshot batch, on the engine goroutine, in cycle
	// order. The batch is reused: Emit must serialize or copy (Batch.Clone)
	// anything it keeps. A nil Sink still drives registered fold hooks (the
	// power governor works without an observer).
	Sink Sink
}

// Sink consumes snapshot batches. Emit runs on the engine goroutine between
// clock edges; slow sinks slow the simulation, never corrupt it.
type Sink interface {
	Emit(b *Batch)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(b *Batch)

// Emit calls f.
func (f SinkFunc) Emit(b *Batch) { f(b) }

// Collector samples a registry at fixed cycle intervals. It is registered on
// the core clock as a ticker whose NextWorkCycle is the next sample point, so
// its timer wakes it on exactly that edge — the sample grid is identical in
// fast-path and legacy-tick execution. Tick only marks the pending sample; the
// actual registry walk happens in a barrier task (after every component of the
// edge has ticked and the ports have committed), so a snapshot reads post-edge
// state wherever the collector sits in registration order.
type Collector struct {
	reg    *Registry
	every  int64
	next   int64
	sink   Sink
	timeOf func(cycle int64) int64

	// hooks run at every sample point, before the snapshot, in registration
	// order (the power meter advances first, then the governor steps).
	hooks []func(cycle int64)

	pending bool
	at      int64 // cycle the pending sample was marked on
	batch   Batch
}

// NewCollector builds a collector over reg. design and app label every
// batch; every is the sampling period (0 = DefaultEvery).
func NewCollector(reg *Registry, design, app string, every int64, sink Sink) *Collector {
	if every <= 0 {
		every = DefaultEvery
	}
	c := &Collector{reg: reg, every: every, next: every, sink: sink}
	c.timeOf = func(int64) int64 { return 0 }
	c.batch.Design = design
	c.batch.App = app
	return c
}

// SetTimeFunc installs the cycle→picosecond conversion used to stamp
// batches. The owner passes the exact integer arithmetic of its clock so
// batch timestamps can never drift from engine time.
func (c *Collector) SetTimeFunc(fn func(cycle int64) int64) { c.timeOf = fn }

// OnSample registers a hook to run at each sample point before the registry
// is read. Hooks run serially on the engine goroutine.
func (c *Collector) OnSample(fn func(cycle int64)) { c.hooks = append(c.hooks, fn) }

// Tick marks the sample pending when the clock reaches the next sample
// cycle. It runs inside the edge and touches only the collector's own fields.
func (c *Collector) Tick(now int64) {
	if now >= c.next {
		c.pending = true
		c.at = now
		c.next = now + c.every
	}
}

// NextWorkCycle returns the next sample cycle: the collector's timer wakes it
// on that edge.
func (c *Collector) NextWorkCycle(now int64) int64 { return c.next }

// WakeSources implements sim.WakeSourcer: the collector consumes no port, so
// only its own timer — the next sample cycle — ever wakes it.
func (c *Collector) WakeSources() []sim.PortRef { return nil }

// Fold takes the pending snapshot, if any, stamped with the cycle the sample
// was marked on. It must be called from a barrier task of the collector's
// clock: barriers run after the edge's port commits, so the snapshot
// observes a consistent post-edge state.
func (c *Collector) Fold() {
	if !c.pending {
		return
	}
	c.pending = false
	c.emit(c.at, c.timeOf(c.at), false)
}

// Flush emits one final batch unconditionally (end of run).
func (c *Collector) Flush(cycle int64) {
	c.pending = false
	c.emit(cycle, c.timeOf(cycle), true)
}

func (c *Collector) emit(cycle, timePs int64, final bool) {
	for _, fn := range c.hooks {
		fn(cycle)
	}
	if c.sink == nil {
		return
	}
	c.reg.Sample(&c.batch)
	c.batch.Cycle = cycle
	c.batch.TimePs = timePs
	c.batch.Final = final
	c.sink.Emit(&c.batch)
}

// NDJSONSink streams each batch as one JSON line. It is safe for sequential
// use from the engine goroutine; Close flushes buffered output.
type NDJSONSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewNDJSONSink wraps w in a buffered NDJSON batch writer.
func NewNDJSONSink(w io.Writer) *NDJSONSink {
	bw := bufio.NewWriter(w)
	return &NDJSONSink{bw: bw, enc: json.NewEncoder(bw)}
}

// Emit writes the batch as one JSON line; the first error sticks.
func (s *NDJSONSink) Emit(b *Batch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(b)
}

// Close flushes the buffer and returns the first write error.
func (s *NDJSONSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return s.bw.Flush()
}

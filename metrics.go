package dcl1

import (
	"io"

	"dcl1sim/internal/metrics"
	"dcl1sim/internal/power"
)

// MetricsOptions configures live metrics streaming for a run: the sampling
// period in core cycles and the sink each snapshot batch is delivered to.
// Samples land on exact multiples of Every, identical in every tick mode, and
// each batch is a synchronized snapshot taken at a clock barrier — after every
// component of the edge has ticked, never a mid-cycle read.
type MetricsOptions = metrics.Options

// MetricsSink consumes snapshot batches during a run. Emit runs on the
// engine goroutine between clock edges; the batch is reused, so a sink that
// keeps data must copy (MetricsBatch.Clone) or serialize inside Emit.
type MetricsSink = metrics.Sink

// MetricsSinkFunc adapts a function to the MetricsSink interface.
type MetricsSinkFunc = metrics.SinkFunc

// MetricsBatch is one registry snapshot: design/app labels, the core-clock
// cycle and simulated picosecond it was taken at, and one sample per series.
type MetricsBatch = metrics.Batch

// MetricsSample is one series observation inside a batch.
type MetricsSample = metrics.Sample

// PowerCap arms the power-capping governor: when the named zone's metered
// power exceeds BudgetWatts at a sample point, the core duty-cycle throttle
// rises one step; well under budget, it backs off. Capped runs remain fully
// deterministic — throttle state changes only at clock barriers.
type PowerCap = power.CapSpec

// Power zone scopes for PowerCap and the power_zone_watts series.
const (
	ZoneGPU    = power.ZoneGPU
	ZoneMemory = power.ZoneMemory
	ZoneModule = power.ZoneModule
)

// NewMetricsNDJSONSink streams each batch as one JSON object per line to w.
// Close it after the run to flush buffered output.
func NewMetricsNDJSONSink(w io.Writer) *metrics.NDJSONSink {
	return metrics.NewNDJSONSink(w)
}

// WriteMetricsProm renders batches in the Prometheus text exposition format.
func WriteMetricsProm(w io.Writer, batches ...*MetricsBatch) error {
	return metrics.WriteProm(w, batches...)
}

// WithMetrics attaches live metrics collection to the run: the component
// registry is snapshotted every o.Every core cycles and each batch goes to
// o.Sink. Collection never perturbs simulated results.
func WithMetrics(o MetricsOptions) RunOption {
	return func(rc *runConfig) { rc.h.Metrics = &o }
}

// WithPowerCap arms the power-capping governor for the run. A cap works with
// or without WithMetrics; adding a sink makes the throttling visible as the
// power_throttle_level and power_effective_core_mhz series.
func WithPowerCap(cap PowerCap) RunOption {
	return func(rc *runConfig) { rc.h.PowerCap = &cap }
}

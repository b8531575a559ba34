package workload

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"dcl1sim/internal/core"
)

// The per-machine step and the per-wavefront Program are one constructor: a
// wavefront's stream is the same whichever built it, for every planned
// source kind and both schedulers.
func TestStreamsMatchProgram(t *testing.T) {
	alex, _ := ByName("T-AlexNet")
	cnn, _ := ByName("C-NN")
	rsc, _ := ByName("R-SC")
	const cores = 16
	sources := map[string]Source{
		"spec":      rsc,
		"partition": NewPartition(cores, alex, cnn),
	}
	for name, src := range sources {
		for _, sched := range []Sched{RoundRobin, Distributed} {
			program := Streams(src, cores, sched, 7)
			for c := 0; c < cores; c += 5 {
				for w := 0; w < src.WavesFor(c); w += 3 {
					a, b := program(c, w), src.Program(cores, c, w, sched, 7)
					for i := 0; i < 200; i++ {
						if x, y := a.Next(), b.Next(); !reflect.DeepEqual(x, y) {
							t.Fatalf("%s sched %d core %d wave %d op %d: Streams %+v, Program %+v",
								name, sched, c, w, i, x, y)
						}
					}
				}
			}
		}
	}
}

// TestStreamRecordSizes pins what a wavefront's generator costs: at most
// one 96-byte allocation, its app's plan shared by the whole machine.
// It measures the process's allocations, so it must not run in parallel.
func TestStreamRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(gen{}); n > 96 {
		t.Errorf("per-wavefront generator is %d bytes, want <= 96", n)
	}
	alex, _ := ByName("T-AlexNet")
	const cores = 80
	progs := make([]core.Program, 0, cores*alex.WavesFor(0))
	// No collection may start inside the measurement: the first one
	// allocates its mark workers.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	program := Streams(alex, cores, RoundRobin, 1)
	for c := 0; c < cores; c++ {
		for w := 0; w < alex.WavesFor(c); w++ {
			progs = append(progs, program(c, w))
		}
	}
	runtime.ReadMemStats(&after)
	// 246,288 bytes in 2,563 allocations when the bound was set (+10 %);
	// one Program call per wavefront took 1,003,520 bytes in 5,120.
	const maxBytes = 271_000
	bytes, allocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("%d programs: %d bytes in %d allocations", len(progs), bytes, allocs)
	if bytes >= maxBytes {
		t.Errorf("building %d programs allocated %d bytes, want < %d", len(progs), bytes, maxBytes)
	}
	if allocs > uint64(len(progs))+8 {
		t.Errorf("building %d programs took %d allocations, want one per program plus the plan", len(progs), allocs)
	}
}

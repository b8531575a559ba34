package gpu

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"dcl1sim/internal/trace"
	"dcl1sim/internal/workload"
)

// TestTraceReplayMatchesSynthetic records sources whose cores run different
// wavefront counts — R-SC's skewed CTA distribution (every fourth core runs
// twice as many) and a partition of T-AlexNet (32 per core) beside C-NN (4)
// — round-trips each trace through its file format, and replays it: the
// Results must equal the synthetic run's byte for byte. 400 ops per
// wavefront is four times what the windows consume.
func TestTraceReplayMatchesSynthetic(t *testing.T) {
	cfg := quiesceCfg()
	cfg.Seed = 1
	rsc, _ := workload.ByName("R-SC")
	alex, _ := workload.ByName("T-AlexNet")
	cnn, _ := workload.ByName("C-NN")
	for _, src := range []workload.Source{rsc, workload.NewPartition(cfg.Cores, alex, cnn)} {
		t.Run(src.Label(), func(t *testing.T) {
			var buf bytes.Buffer
			if err := trace.Write(&buf, trace.Capture(src, cfg.Cores, 400, cfg.Sched, cfg.Seed)); err != nil {
				t.Fatal(err)
			}
			tr, err := trace.Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < cfg.Cores; c++ {
				if got, want := tr.WavesFor(c), src.WavesFor(c); got != want {
					t.Fatalf("core %d: trace has %d wavefronts, source %d", c, got, want)
				}
			}
			want := resultsJSON(t, Run(cfg, Design{Kind: Baseline}, src))
			if got := resultsJSON(t, Run(cfg, Design{Kind: Baseline}, tr)); !bytes.Equal(got, want) {
				t.Errorf("replay diverged from the synthetic run:\nreplay:    %s\nsynthetic: %s", got, want)
			}
		})
	}
}

// TestConcurrentMachinesShareNothing builds and runs one app and design on
// four goroutines at once, as sweep workers do: each must produce a serial
// run's Results. Under the race detector it also proves the machines share
// no mutable state: the concurrent builds come first, so a plan cached
// across machines would be written by all four at once.
func TestConcurrentMachinesShareNothing(t *testing.T) {
	cfg := quiesceCfg()
	cfg.WarmupCycles, cfg.MeasureCycles = 400, 1200
	app, _ := workload.ByName("T-AlexNet")
	d := Design{Kind: Clustered, DCL1s: 8, Clusters: 2}
	got := make([][]byte, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = json.Marshal(Run(cfg, d, app))
		}()
	}
	wg.Wait()
	want := resultsJSON(t, Run(cfg, d, app))
	for i, g := range got {
		if !bytes.Equal(g, want) {
			t.Errorf("machine %d of 4 diverged from the serial run:\nconcurrent: %s\nserial:     %s", i, g, want)
		}
	}
}

func resultsJSON(t *testing.T, r Results) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

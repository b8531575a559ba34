package gpu

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"
)

// TestBenchPinnedSurface is the tier-1 guard for what the nested bench/
// module (which `go build ./...` does not compile) names of this package:
// NewSystemChecked, WithoutPool, System.RunChecked and HealthOptions{
// LegacyTick, Shards}. Every variant bench/layers.go runs must produce the
// same Results JSON — and Shards, which survives only because that frozen
// file sets it, must be inert: the same walk, edge for edge, and no goroutine
// started for it. Not parallel: the goroutine count is the process's.
func TestBenchPinnedSurface(t *testing.T) {
	cfg, d, app := testCfg(), Design{Kind: Clustered, DCL1s: 4, Clusters: 2}, sharingApp()
	run := func(h HealthOptions, build ...BuildOption) (res []byte, sys *System, goroutines int) {
		t.Helper()
		sys, err := NewSystemChecked(cfg, d, app, build...)
		if err != nil {
			t.Fatal(err)
		}
		sys.CoreClk.OnBarrier(func() { goroutines = max(goroutines, runtime.NumGoroutine()) })
		r, err := sys.RunChecked(h)
		if err != nil {
			t.Fatal(err)
		}
		if res, err = json.Marshal(r); err != nil {
			t.Fatal(err)
		}
		return res, sys, goroutines
	}
	before := runtime.NumGoroutine()
	want, ref, _ := run(HealthOptions{})
	for _, v := range []struct {
		name   string
		health HealthOptions
		build  []BuildOption
	}{
		{name: "legacy", health: HealthOptions{LegacyTick: true}},
		{name: "shards2", health: HealthOptions{Shards: 2}},
		{name: "nopool", build: []BuildOption{WithoutPool()}},
	} {
		got, sys, goroutines := run(v.health, v.build...)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: Results JSON differs from the default run:\n got %s\nwant %s", v.name, got, want)
		}
		if v.health.Shards == 0 {
			continue
		}
		if !reflect.DeepEqual(sys.Eng.WalkStats(), ref.Eng.WalkStats()) {
			t.Errorf("%s: WalkStats differ from the default run: HealthOptions.Shards is read somewhere\n got %+v\nwant %+v",
				v.name, sys.Eng.WalkStats(), ref.Eng.WalkStats())
		}
		if goroutines > before {
			t.Errorf("%s: %d goroutines during the run, %d before it", v.name, goroutines, before)
		}
	}
}

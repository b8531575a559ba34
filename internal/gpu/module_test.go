package gpu

import (
	"bytes"
	"encoding/json"
	"testing"

	"dcl1sim/internal/chaos"
	"dcl1sim/internal/metrics"
)

// multiCases are the multi-GPU runs pinned under testdata/golden_multi: all
// seven design kinds as 2-module machines, a 4-module machine, the private
// address space, and one run under fault injection (which pins the
// module-global injector indices and the chaos-link series).
func multiCases() []goldenCase {
	var cases []goldenCase
	for _, c := range goldenDesigns() {
		c.name += "-m2"
		c.d.Modules = 2
		cases = append(cases, c)
	}
	return append(cases,
		goldenCase{name: "sh4-m4", d: Design{Kind: Shared, DCL1s: 4, Modules: 4}},
		goldenCase{name: "pr4-m2-priv", d: Design{Kind: Private, DCL1s: 4, Modules: 2, PrivateAS: true}},
		goldenCase{name: "sh4-m2-chaos", d: Design{Kind: Shared, DCL1s: 4, Modules: 2}, chaos: chaos.Light(3)},
	)
}

// TestModuleDeterminismMatrix pins multi-GPU machines to their golden files:
// Results and the live metrics stream are byte-equal to the recorded run in
// both tick modes.
func TestModuleDeterminismMatrix(t *testing.T) {
	checkGolden(t, "golden_multi", multiCases())
}

// TestMultiModuleMakesProgress is the basic multi-GPU smoke test: every
// module retires instructions and the machine-level figures are populated.
func TestMultiModuleMakesProgress(t *testing.T) {
	r := Run(testCfg(), Design{Kind: Shared, DCL1s: 4, Modules: 4}, sharingApp())
	if r.Modules != 4 {
		t.Fatalf("Modules = %d, want 4", r.Modules)
	}
	if len(r.ModuleIPC) != 4 {
		t.Fatalf("ModuleIPC has %d entries, want 4", len(r.ModuleIPC))
	}
	for i, ipc := range r.ModuleIPC {
		if ipc <= 0 {
			t.Fatalf("module %d made no progress (IPC %f)", i, ipc)
		}
	}
	if r.IPC <= 0 || r.MeanRTT <= 0 {
		t.Fatalf("aggregate figures empty: IPC=%f MeanRTT=%f", r.IPC, r.MeanRTT)
	}
}

// TestPartitionedLinkCarriesTraffic checks the partitioned address space
// actually exercises the inter-module link: with lines homed round-robin
// across modules, a 4-module machine must send most misses remote, while the
// private (replicated) address space leaves the link idle.
func TestPartitionedLinkCarriesTraffic(t *testing.T) {
	cfg := testCfg()
	part := Run(cfg, Design{Kind: Shared, DCL1s: 4, Modules: 4}, sharingApp())
	if part.LinkFlits == 0 {
		t.Fatalf("partitioned 4-module machine moved no link flits")
	}
	if part.MaxLinkUtil <= 0 {
		t.Fatalf("partitioned machine reports zero link utilization with %d flits", part.LinkFlits)
	}
	priv := Run(cfg, Design{Kind: Shared, DCL1s: 4, Modules: 4, PrivateAS: true}, sharingApp())
	if priv.LinkFlits != 0 {
		t.Fatalf("private address space moved %d link flits, want 0", priv.LinkFlits)
	}
}

// TestLinkBandwidthMatters checks the link model is a real contended
// resource: starving a partitioned machine's link (1 GB/s, long latency)
// must not outperform a generously provisioned one.
func TestLinkBandwidthMatters(t *testing.T) {
	cfg := testCfg()
	app := sharingApp()
	slow := Run(cfg, Design{Kind: Shared, DCL1s: 4, Modules: 2, LinkGBps: 1, LinkLat: 64}, app)
	fast := Run(cfg, Design{Kind: Shared, DCL1s: 4, Modules: 2, LinkGBps: 256, LinkLat: 4}, app)
	if slow.IPC > fast.IPC {
		t.Fatalf("slow link IPC %f beats fast link IPC %f", slow.IPC, fast.IPC)
	}
	if slow.MeanRTT < fast.MeanRTT {
		t.Fatalf("slow link RTT %f beats fast link RTT %f", slow.MeanRTT, fast.MeanRTT)
	}
}

// TestMultiModuleResultsJSONHasModuleFields checks the module figures survive
// the JSON round-trip (they are omitempty so single-module output is
// untouched; multi-module output must carry them).
func TestMultiModuleResultsJSONHasModuleFields(t *testing.T) {
	r := Run(testCfg(), Design{Kind: Baseline, Modules: 2}, sharingApp())
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"Modules":2`, `"ModuleIPC":[`, `"LinkFlits":`} {
		if !bytes.Contains(b, []byte(key)) {
			t.Fatalf("marshalled multi-module Results missing %s: %s", key, b)
		}
	}
}

// TestMachineMetricsStreamHasModulePrefixes checks the shared registry emits
// every module's series with its m<i>. component prefix.
func TestMachineMetricsStreamHasModulePrefixes(t *testing.T) {
	var stream bytes.Buffer
	_, err := RunChecked(testCfg(), Design{Kind: Baseline, Modules: 2}, sharingApp(), HealthOptions{
		Metrics: &metrics.Options{Every: 2048, Sink: metrics.NewNDJSONSink(&stream)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"m0.core-0/`, `"m1.core-0/`, `"link-req/link/`} {
		if !bytes.Contains(stream.Bytes(), []byte(want)) {
			t.Fatalf("metrics stream missing series id prefix %s", want)
		}
	}
}

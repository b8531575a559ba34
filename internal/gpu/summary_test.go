package gpu

import (
	"strings"
	"testing"
)

func TestResultsSummary(t *testing.T) {
	r := Run(testCfg(), Design{Kind: Baseline}, sharingApp())
	s := r.Summary()
	for _, want := range []string{"app:", "design:", "Baseline", "IPC:", "replication ratio:", "p50~", "DRAM"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestRTTPercentilesOrdered(t *testing.T) {
	r := Run(testCfg(), Design{Kind: Shared, DCL1s: 4}, sharingApp())
	if r.P50RTT <= 0 || r.P99RTT < r.P50RTT {
		t.Fatalf("percentiles inconsistent: p50=%d p99=%d", r.P50RTT, r.P99RTT)
	}
	if float64(r.P99RTT) < r.MeanRTT/4 {
		t.Fatalf("p99 (%d) implausibly below mean (%f)", r.P99RTT, r.MeanRTT)
	}
}

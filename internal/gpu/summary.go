package gpu

import (
	"fmt"
	"strings"
)

// Summary renders the headline measurements as aligned text (the dcl1sim CLI
// output format).
func (r Results) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "app:               %s\n", r.App)
	fmt.Fprintf(&sb, "design:            %s\n", r.Design)
	fmt.Fprintf(&sb, "IPC:               %.3f\n", r.IPC)
	fmt.Fprintf(&sb, "L1 miss rate:      %.3f\n", r.L1MissRate)
	fmt.Fprintf(&sb, "replication ratio: %.3f\n", r.ReplicationRatio)
	fmt.Fprintf(&sb, "replicas/line:     %.2f\n", r.MeanReplicas)
	fmt.Fprintf(&sb, "max L1 port util:  %.3f\n", r.MaxL1PortUtil)
	fmt.Fprintf(&sb, "max reply link:    %.3f\n", r.MaxReplyLinkUtil)
	fmt.Fprintf(&sb, "mean load RTT:     %.1f core cycles (p50~%d, p99~%d)\n", r.MeanRTT, r.P50RTT, r.P99RTT)
	fmt.Fprintf(&sb, "L2 miss rate:      %.3f\n", r.L2MissRate)
	fmt.Fprintf(&sb, "DRAM reads/writes: %d / %d\n", r.DramReads, r.DramWrites)
	fmt.Fprintf(&sb, "NoC#1 / NoC#2 flits: %d / %d\n", r.Noc1Flits, r.Noc2Flits)
	if r.FaultsInjected > 0 {
		fmt.Fprintf(&sb, "faults injected:   %d\n", r.FaultsInjected)
	}
	return sb.String()
}

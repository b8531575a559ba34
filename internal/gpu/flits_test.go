package gpu

import (
	"testing"

	"dcl1sim/internal/mem"
)

// TestPacketFlits pins the flit cost of every packet kind on 32-byte flits
// (one header flit plus the payload): requests are control-only except the
// data they carry, and only a load reply toward a core is trimmed to the
// requested bytes (Section III); a reply toward a cache carries the line.
func TestPacketFlits(t *testing.T) {
	const link = 32
	for _, tc := range []struct {
		name       string
		kind       mem.Kind
		reqBytes   int32
		fullStore  bool
		toCore     bool
		req, reply int
	}{
		{"load to core", mem.Load, 32, false, true, 1, 2},
		{"load to core, 40 B", mem.Load, 40, false, true, 1, 3},
		{"load to cache", mem.Load, 32, true, false, 1, 5},
		{"non-L1 to core", mem.NonL1, 32, false, true, 1, 5},
		{"non-L1 to cache", mem.NonL1, 32, true, false, 1, 5},
		{"store from core", mem.Store, 16, false, true, 2, 1},
		{"store from cache", mem.Store, 16, true, false, 5, 1},
		{"atomic to core", mem.Atomic, 8, false, true, 2, 2},
		{"atomic to cache", mem.Atomic, 8, true, false, 2, 2},
	} {
		a := &mem.Access{Kind: tc.kind, ReqBytes: tc.reqBytes}
		if got := reqFlits(a, link, tc.fullStore); got != tc.req {
			t.Errorf("%s: request %d flits, want %d", tc.name, got, tc.req)
		}
		if got := replyFlits(a, link, tc.toCore); got != tc.reply {
			t.Errorf("%s: reply %d flits, want %d", tc.name, got, tc.reply)
		}
	}
}

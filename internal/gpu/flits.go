package gpu

import "dcl1sim/internal/mem"

// Flit accounting. Read requests and ACKs are control-only (1 flit). Stores
// carry their payload toward memory. Load replies toward a cache carry the
// whole line; load replies toward a core carry only the requested bytes
// (Section III reply trimming: the core has no L1 to install a full line
// into, so sending 128 B would waste NoC#1 bandwidth).

// reqFlits sizes a request packet. full selects whether stores carry a whole
// line (L1→L2 after write-evict merges the evicted line) or just the written
// bytes (core→DC-L1).
func reqFlits(a *mem.Access, linkBytes int, fullStore bool) int {
	switch a.Kind {
	case mem.Load, mem.NonL1:
		return mem.FlitCount(0, linkBytes)
	case mem.Store:
		if fullStore {
			return mem.FlitCount(mem.LineBytes, linkBytes)
		}
		return mem.FlitCount(int(a.ReqBytes), linkBytes)
	case mem.Atomic:
		return mem.FlitCount(int(a.ReqBytes), linkBytes)
	default:
		return 1
	}
}

// replyFlits sizes a reply packet. toCore selects the trimmed form for load
// replies travelling to a GPU core.
func replyFlits(a *mem.Access, linkBytes int, toCore bool) int {
	switch a.Kind {
	case mem.Load:
		if toCore {
			return mem.FlitCount(int(a.ReqBytes), linkBytes)
		}
		return mem.FlitCount(mem.LineBytes, linkBytes)
	case mem.NonL1:
		return mem.FlitCount(mem.LineBytes, linkBytes)
	case mem.Store:
		return mem.FlitCount(0, linkBytes) // ACK
	case mem.Atomic:
		return mem.FlitCount(int(a.ReqBytes), linkBytes)
	default:
		return 1
	}
}

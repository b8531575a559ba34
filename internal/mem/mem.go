// Package mem defines the memory-access and packet types exchanged between
// GPU cores, (DC-)L1 caches, the NoC, L2 slices, and memory controllers, plus
// the address-mapping helpers shared by all designs.
//
// Addresses are handled at cache-line granularity throughout the simulator:
// an Access carries a line number (byte address >> 7 for 128 B lines) and the
// number of bytes the requesting wavefront actually needs, which determines
// reply size on NoC#1 under the DC-L1 designs (the paper's "send only the
// requested bytes" optimization, Section III).
package mem

import "fmt"

// LineBytes is the cache line size used by every cache level (Table II).
const LineBytes = 128

// Kind classifies a memory access.
type Kind uint8

// Access kinds. NonL1 traffic models instruction/texture/constant misses that
// bypass the (DC-)L1 data cache on their way to L2 (Section III, "Handling
// Non-L1 Requests"). Atomics skip the L1/DC-L1 and are resolved at the L2/MC.
const (
	Load Kind = iota
	Store
	NonL1
	Atomic
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case NonL1:
		return "non-l1"
	case Atomic:
		return "atomic"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Access is one line-granular memory transaction produced by a core's
// coalescer. The same value travels down the hierarchy as a request and back
// up as a reply (IsReply set), so end-to-end latency can be measured without
// auxiliary maps.
//
// Fields are ordered by size and the ids narrowed to what a machine needs
// (at most 2^31 cores, wavefronts and nodes, 2^15 modules): 44 bytes, one
// 48-byte allocation size class. Tens of thousands are live at once on the
// paper's machine.
type Access struct {
	ID   uint64 // unique per run, assigned by the issuing core
	Line uint64 // cache-line number (byte address / LineBytes)

	// IssuedAt is the issuing core-clock cycle, for round-trip statistics.
	IssuedAt int64

	// ReqBytes is the number of bytes the wavefront needs from this line
	// (<= LineBytes). Replies on NoC#1 under DC-L1 designs carry only these
	// bytes; baseline replies and all NoC#2 fills carry the whole line.
	ReqBytes int32

	Core int32 // issuing core id
	Wave int32 // issuing wavefront id within the core

	// Node is the L1/DC-L1 node that generated this access, for traffic that
	// has no originating core (sequential prefetches): replies route back to
	// the node instead of a core's home path.
	Node int32

	// Module is the GPU module that issued this access, for traffic that
	// crosses the inter-module link in a multi-GPU machine: the home module
	// routes the fill back to Module. Always 0 in a single-module build.
	Module int16

	Kind    Kind
	IsReply bool
}

// Reply marks a as a reply, in place, and returns it. Turning a request into
// its reply reuses the same Access: every caller drops its reference to the
// request after calling Reply (the request is popped or already owned), so no
// copy is needed and the reply stays allocation-free. Callers that must keep
// the request (MSHR fetch copies) copy explicitly before forwarding.
func (a *Access) Reply() *Access {
	a.IsReply = true
	return a
}

// Packet wraps an Access for transport through one crossbar: Src and Dst are
// port indices local to that crossbar, and Flits is the serialized length in
// link-width units (set by the injecting node via FlitCount).
type Packet struct {
	Acc   *Access
	Src   int
	Dst   int
	Flits int
}

// FlitCount returns the number of flits a message occupies on links of
// linkBytes width: one header/control flit plus enough data flits for
// payloadBytes. Read requests and write ACKs are control-only
// (payloadBytes = 0) and occupy a single flit.
func FlitCount(payloadBytes, linkBytes int) int {
	if linkBytes <= 0 {
		panic("mem: FlitCount with non-positive link width")
	}
	if payloadBytes <= 0 {
		return 1
	}
	return 1 + (payloadBytes+linkBytes-1)/linkBytes
}

// ModuleStride is the number of consecutive lines (4 KB) that share a home
// module in the partitioned multi-GPU address space. Coarser than the L2
// slice interleave so a module keeps page-sized chunks local, finer than a
// workload's footprint so DRAM capacity still spreads across modules.
const ModuleStride = 32

// AddressMap fixes how lines map onto L2 slices, memory channels, DRAM banks
// and rows. All designs share the L2/memory side; DC-L1 home selection is
// design-specific and lives in package dcl1.
//
// In a multi-GPU machine each module holds its own AddressMap with Modules
// and Module set: the per-module L2/DRAM geometry is unchanged, and the
// module fields only decide whether a line's backing DRAM is local or behind
// the inter-module link.
type AddressMap struct {
	L2Slices int
	Channels int
	Banks    int
	RowLines int // lines per DRAM row (row size / LineBytes)

	// Modules and Module place this map inside a multi-GPU machine: Modules
	// is the machine's module count (0 or 1 = single-module), Module the
	// index of the module owning this map.
	Modules int
	Module  int

	// Private selects the replicated address-space mode: every module owns a
	// full copy of the address space, all lines are local, and the
	// inter-module link stays idle.
	Private bool
}

// L2Slice returns the L2 slice holding a line. Lines interleave across slices
// at line granularity (slice = line mod L2Slices), the counterpart of the
// paper's address-sliced L2 banks.
func (m AddressMap) L2Slice(line uint64) int {
	return int(line % uint64(m.L2Slices))
}

// Channel returns the memory channel serving an L2 slice. Adjacent slices
// pair onto a channel (2 slices per MC in the 80-core machine: 32 slices,
// 16 channels).
func (m AddressMap) Channel(slice int) int {
	per := m.L2Slices / m.Channels
	if per <= 0 {
		per = 1
	}
	ch := slice / per
	if ch >= m.Channels {
		ch = m.Channels - 1
	}
	return ch
}

// Bank returns the DRAM bank within a channel for a line: sequential rows
// interleave across banks so streaming workloads touch many banks.
func (m AddressMap) Bank(line uint64) int {
	return int((line / uint64(m.RowLines)) % uint64(m.Banks))
}

// Row returns the DRAM row index within a bank.
func (m AddressMap) Row(line uint64) uint64 {
	return line / uint64(m.RowLines) / uint64(m.Banks)
}

// HomeModule returns the module whose DRAM backs a line in the partitioned
// address space: ModuleStride-line chunks interleave round-robin across
// modules. Meaningless (always 0) for single-module or private maps.
func (m AddressMap) HomeModule(line uint64) int {
	if m.Modules <= 1 {
		return 0
	}
	return int((line / ModuleStride) % uint64(m.Modules))
}

// Local reports whether a line's backing DRAM is on this map's module — true
// for every line in single-module machines and in the private (replicated)
// address-space mode; otherwise true only for lines homed here.
func (m AddressMap) Local(line uint64) bool {
	if m.Modules <= 1 || m.Private {
		return true
	}
	return m.HomeModule(line) == m.Module
}

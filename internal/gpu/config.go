// Package gpu assembles complete simulated machines for every cache
// organization the paper evaluates — Baseline (private per-core L1s), PrY
// (private aggregated DC-L1s), ShY (fully shared DC-L1s), ShY+CZ (clustered
// shared DC-L1s), their frequency-boosted variants, and the CDXBar
// hierarchical-crossbar baseline — and runs workloads on them, producing the
// measurements behind each figure.
package gpu

import (
	"dcl1sim/internal/mem"
	"dcl1sim/internal/sim"
	"dcl1sim/internal/workload"
)

// ModelVersion names the timing model that produces Results. It leads every
// point key (experiments.JobKey), so a resume journal or a result store
// written under one model never serves another's Results. Bump it in the
// change that changes Results — the one that regenerates testdata — and
// record the new testdata digest beside it in TestGoldenDigestNamesModel.
const ModelVersion = "2"

// Config is the machine configuration: the Table II values a study or a test
// machine varies. Zero fields take the 80-core defaults via WithDefaults; the
// rest of Table II is the constants below.
type Config struct {
	Cores    int
	L2Slices int
	Channels int

	// L1 (per core under Baseline; DC-L1 nodes keep the summed capacity).
	L1KB  int
	L1Lat sim.Cycle // access latency of a 32 KB bank; larger banks derive
	// their latency from the CACTI model. Negative values are
	// clamped to zero (Fig 19b sweeps from zero).

	// L2 per slice.
	L2KB int

	// Run windows, in core cycles.
	WarmupCycles  sim.Cycle
	MeasureCycles sim.Cycle

	// Workload knobs.
	Sched workload.Sched
	Seed  uint64

	// Memory transactions one wavefront may have outstanding.
	MaxOutstanding int
}

// The Table II values no study varies. NoCMHz is the clock of both
// interconnects (a boosted network runs at twice it), the one value another
// package reads.
const (
	coreMHz = 1400
	NoCMHz  = 700
	memMHz  = 924

	l1Ways     = 4
	l1MSHRs    = 64 // per L1 node
	l1MaxMerge = 8  // requests per MSHR entry, the first included

	l2Ways    = 8
	l2Lat     = sim.Cycle(20) // hit latency, NoC#2 cycles
	l2MSHRs   = 128
	dramBanks = 16 // per channel
)

// WithDefaults fills zero fields with the paper's 80-core machine.
func (c Config) WithDefaults() Config {
	if c.Cores <= 0 {
		c.Cores = 80
	}
	if c.L2Slices <= 0 {
		c.L2Slices = 32
	}
	if c.Channels <= 0 {
		c.Channels = 16
	}
	if c.L1KB <= 0 {
		c.L1KB = 32
	}
	if c.L1Lat == 0 {
		c.L1Lat = 28
	}
	if c.L1Lat < 0 {
		c.L1Lat = 0
	}
	if c.L2KB <= 0 {
		c.L2KB = 128
	}
	if c.WarmupCycles <= 0 {
		c.WarmupCycles = 10000
	}
	if c.MeasureCycles <= 0 {
		c.MeasureCycles = 40000
	}
	if c.MaxOutstanding <= 0 {
		c.MaxOutstanding = 12
	}
	return c
}

// AddressMap returns the L2/DRAM address mapping for this machine.
func (c Config) AddressMap() mem.AddressMap {
	return mem.AddressMap{
		L2Slices: c.L2Slices,
		Channels: c.Channels,
		Banks:    dramBanks,
		RowLines: 16,
	}
}

// DesignKind enumerates the cache organizations.
type DesignKind uint8

// Organizations under evaluation.
const (
	Baseline  DesignKind = iota
	Private              // PrY
	Shared               // ShY
	Clustered            // ShY+CZ
	CDXBar               // hierarchical two-stage crossbar with private L1s
	SingleL1             // Section II-C hypothetical: one aggregated L1
	MeshBase             // extension: private L1s on a 2D-mesh NoC
)

// String implements fmt.Stringer.
func (k DesignKind) String() string {
	switch k {
	case Baseline:
		return "Baseline"
	case Private:
		return "Pr"
	case Shared:
		return "Sh"
	case Clustered:
		return "ShC"
	case CDXBar:
		return "CDXBar"
	case SingleL1:
		return "SingleL1"
	case MeshBase:
		return "MeshBase"
	default:
		return "?"
	}
}

// Design selects one evaluated organization plus the study knobs.
type Design struct {
	Kind     DesignKind
	DCL1s    int // Y (Private/Shared/Clustered)
	Clusters int // Z (Clustered)

	// Boost1 and Boost2 run NoC#1 and NoC#2 at 2x the interconnect clock:
	// Sh40+C10+Boost and CDXBar+2xNoC1 set Boost1, CDXBar+2xNoC both, and
	// Baseline+2xNoC Boost2 (Baseline's one crossbar is on NoC#2).
	Boost1 bool
	Boost2 bool

	// CDXBar shape (Fig 19a): like Cores, it describes the machine, so the
	// name leaves it out.
	CDXGroups int
	CDXMid    int

	// Study knobs.
	L1CapacityScale int  // 16 for Fig 1, 2 for the boosted baseline
	PerfectL1       bool // Fig 4c
	FlitBytes       int  // 64 for the 2x-flit boosted baseline
	// PrefetchNext enables the sequential prefetcher extension in the
	// L1/DC-L1 nodes: N best-effort line fetches per demand miss.
	PrefetchNext int
	// L1WriteBack switches the L1/DC-L1 policy from the paper's write-evict
	// (+ no-write-allocate) to write-back (+ write-allocate): an ablation of
	// the Section VII policy choice.
	L1WriteBack bool

	// Multi-GPU module assembly (DESIGN.md §16). Modules builds N copies of
	// the full machine joined by an inter-GPU link; 0 or 1 is the classic
	// single-module build, byte-identical to the pre-module simulator.
	Modules int // number of linked GPU modules (+M<n>, 2..8)
	// LinkGBps is the inter-module link bandwidth per direction in GB/s
	// (+G<n>): the link clocks at 1 GHz, so the value is also the link flit
	// width in bytes. 0 defaults to 64 GB/s when Modules >= 2.
	LinkGBps int
	// LinkLat is the link switch latency in link cycles (+Lat<n>); 0
	// defaults to 8 when Modules >= 2.
	LinkLat sim.Cycle
	// PrivateAS selects the private (per-module replicated) address-space
	// mode (+Priv): every module owns a full copy of the address space and
	// the link stays idle. The default is the partitioned mode, where each
	// line has one home module's DRAM and remote L2 misses cross the link.
	PrivateAS bool
}

func (d Design) withDefaults(cfg Config) Design {
	if d.DCL1s <= 0 {
		d.DCL1s = max(1, cfg.Cores/2)
	}
	if d.Clusters <= 0 {
		d.Clusters = 1
	}
	if d.CDXGroups <= 0 {
		d.CDXGroups = 10
	}
	if d.CDXMid <= 0 {
		d.CDXMid = 4
	}
	if d.L1CapacityScale <= 0 {
		d.L1CapacityScale = 1
	}
	if d.FlitBytes <= 0 {
		d.FlitBytes = 32
	}
	if d.Modules == 1 {
		d.Modules = 0 // one module is the single-module machine
	}
	if d.Modules >= 2 {
		if d.LinkGBps <= 0 {
			d.LinkGBps = DefaultLinkGBps
		}
		if d.LinkLat <= 0 {
			d.LinkLat = DefaultLinkLat
		}
	}
	return d
}

// Default inter-module link parameters, applied when a multi-module design
// leaves them unset. Canonical names omit default values ("Sh40+M4" and
// "Sh40+M4+G64+Lat8" are the same machine and the same name).
const (
	DefaultLinkGBps = 64
	DefaultLinkLat  = sim.Cycle(8)
)

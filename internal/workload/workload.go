// Package workload provides synthetic trace generators standing in for the
// paper's 28 GPGPU applications (CUDA-SDK, Rodinia, SHOC, PolyBench, Tango).
//
// We cannot run the original CUDA binaries (no GPU simulator ecosystem in
// Go, no traces), so each application is modeled by the memory-access
// *structure* its published fingerprint implies — the quantities the DC-L1
// designs actually react to:
//
//   - SharedLines/SharedFrac/SharedZipf: the inter-core shared working set
//     (drives the replication ratio of Fig 1 and the gains of aggregation);
//   - PrivateLines: per-wavefront streaming footprint (capacity-insensitive
//     misses);
//   - CampStride: address-space striding that collapses onto few home DC-L1s
//     (partition camping: C-RAY, P-3MM, P-GEMM, P-2MM);
//   - Waves/BlockEvery/ComputePerMem: occupancy and latency tolerance
//     (C-NN's sensitivity to the extra core↔DC-L1 hops);
//   - CoalescedLines and the compute:memory ratio: L1 bandwidth demand
//     (P-2DCONV / P-3DCONV peak-bandwidth sensitivity);
//   - Imbalance: CTA-distribution skew (R-SC).
//
// The generator is deterministic per (app, core, wavefront, seed).
package workload

import (
	"fmt"
	"sort"

	"dcl1sim/internal/core"
	"dcl1sim/internal/sim"
)

// Sched selects the CTA scheduling policy (Section VIII-A sensitivity).
type Sched uint8

// Schedulers. RoundRobin spreads consecutive CTAs across cores, so CTA-local
// sharing becomes inter-core sharing (maximum replication). Distributed maps
// nearby CTAs to the same core, converting part of that sharing into
// intra-core reuse.
const (
	RoundRobin Sched = iota
	Distributed
)

// Class labels the paper's application taxonomy.
type Class uint8

// Application classes (Fig 1, Fig 9, Fig 13a).
const (
	// ReplicationSensitive: repl > 25%, miss > 50%, >5% speedup at 16x L1.
	ReplicationSensitive Class = iota
	// PoorPerforming: replication-insensitive apps that suffer badly under
	// the fully-shared Sh40 (C-NN, C-RAY, P-3MM, P-GEMM, P-2DCONV).
	PoorPerforming
	// Insensitive: the remaining replication-insensitive applications.
	Insensitive
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ReplicationSensitive:
		return "replication-sensitive"
	case PoorPerforming:
		return "poor-performing"
	case Insensitive:
		return "insensitive"
	default:
		return "unknown"
	}
}

// Source supplies the instruction streams of a workload: the synthetic Spec
// below, or a recorded trace (package trace) replayed wavefront by
// wavefront. The gpu package runs any Source.
type Source interface {
	// Label names the workload in results.
	Label() string
	// Key names the workload's content for point keys: two sources with
	// equal keys run the same streams on every machine.
	Key() string
	// WavesFor returns the wavefront count of one core.
	WavesFor(coreID int) int
	// Program returns the instruction stream of one wavefront.
	Program(cores, coreID, waveID int, sched Sched, seed uint64) core.Program
}

// Streams is a machine's per-wavefront program constructor for src: the
// returned function gives the instruction stream of wavefront waveID on core
// coreID of a cores-core machine. Synthetic sources (a Spec, a NewPartition
// source) plan each of their apps once here, so the machine's wavefronts
// share one read-only plan per app; any other Source falls back to its
// Program. Each call plans afresh, so machines
// built concurrently share nothing mutable.
func Streams(src Source, cores int, sched Sched, seed uint64) func(coreID, waveID int) core.Program {
	if p, ok := src.(planner); ok {
		return p.streams(cores, sched, seed)
	}
	return func(coreID, waveID int) core.Program {
		return src.Program(cores, coreID, waveID, sched, seed)
	}
}

// planner is a Source that can plan its apps once per machine (Streams).
type planner interface {
	streams(cores int, sched Sched, seed uint64) func(coreID, waveID int) core.Program
}

// Spec defines one synthetic application.
type Spec struct {
	Name  string
	Suite string
	Class Class

	// Occupancy and instruction mix.
	Waves         int       // wavefronts per core
	ComputePerMem int       // compute ops between memory ops
	ComputeLat    sim.Cycle // compute pipeline latency
	BlockEvery    int       // every k-th memory op is load-use blocking (0 = never)

	// Shared (inter-core) region.
	SharedLines int     // footprint in cache lines
	SharedFrac  float64 // fraction of memory ops hitting the shared region
	SharedZipf  float64 // reuse skew within the shared region
	CampStride  int     // line stride (>1 collapses homes: partition camping)
	CampFrac    float64 // fraction of shared draws that camp (0 = all, when CampStride>1)

	// Private (per-wavefront) streaming region.
	PrivateLines int

	// Coalescing and payload.
	CoalescedLines int // lines per memory instruction
	Bytes          int // bytes needed per line (NoC#1 reply payload)

	// Traffic mix.
	WriteFrac  float64
	NonL1Frac  float64
	AtomicFrac float64

	// Imbalance adds extra wavefronts to every 4th core (R-SC's skewed CTA
	// distribution): 1.0 doubles those cores' wavefronts.
	Imbalance float64

	// Paper fingerprint (Fig 1), printed beside the measured one by fig1.
	// Values are approximate readings of the figure.
	PaperReplRatio float64
	PaperMissRate  float64

	// shiftShared relocates the shared region (multiprogram partitions give
	// each co-running application a disjoint shared footprint).
	shiftShared uint64
}

// Label implements Source.
func (s Spec) Label() string { return s.Name }

// Key implements Source: every field, so a re-fitted app keys apart from the
// app it replaces.
func (s Spec) Key() string { return fmt.Sprintf("%+v", s) }

// WavesFor returns the wavefront count for a core under this spec.
func (s Spec) WavesFor(coreID int) int {
	w := s.Waves
	if w <= 0 {
		w = 16
	}
	if s.Imbalance > 0 && coreID%4 == 0 {
		w += int(float64(w) * s.Imbalance)
	}
	return w
}

func (s Spec) withDefaults() Spec {
	if s.Waves <= 0 {
		s.Waves = 16
	}
	if s.ComputeLat <= 0 {
		s.ComputeLat = 4
	}
	if s.CoalescedLines <= 0 {
		s.CoalescedLines = 1
	}
	if s.Bytes <= 0 {
		s.Bytes = 32
	}
	if s.CampStride <= 0 {
		s.CampStride = 1
	}
	if s.CampStride > 1 && s.CampFrac <= 0 {
		s.CampFrac = 1
	}
	if s.PrivateLines <= 0 {
		s.PrivateLines = 1
	}
	return s
}

// Address-space layout (line numbers). Regions are disjoint by construction.
const (
	sharedRegionBase  = uint64(1) << 20
	nonL1RegionBase   = uint64(1) << 28
	privateRegionBase = uint64(1) << 30
	nonL1Lines        = 64
	maxWaveSlots      = 256 // private-region slots per core
)

// Program returns the deterministic instruction stream of one wavefront.
// cores is the machine's core count (needed by the Distributed scheduler to
// slice the shared region), and seed decorrelates independent runs. It plans
// the app for this one wavefront; Streams plans it once for a whole machine.
func (s Spec) Program(cores, coreID, waveID int, sched Sched, seed uint64) core.Program {
	return s.plan(cores, sched, seed).stream(coreID, waveID)
}

func (s Spec) streams(cores int, sched Sched, seed uint64) func(coreID, waveID int) core.Program {
	return s.plan(cores, sched, seed).stream
}

// plan is the read-only part of one app's streams on one machine: every
// wavefront of the app draws from the same defaulted spec and shared-region
// distributions, so a machine builds it once and its wavefronts share it.
type plan struct {
	spec  Spec // defaulted
	sched Sched
	seed  uint64

	// The two shared-region distributions a wavefront draws from: the full
	// region, and the per-core slice of per lines the Distributed scheduler
	// favours.
	zipfAll, zipfSlice sim.Zipf
	per                int
}

func (s Spec) plan(cores int, sched Sched, seed uint64) *plan {
	sp := s.withDefaults()
	p := &plan{spec: sp, sched: sched, seed: seed}
	p.zipfAll = sim.NewZipf(sp.SharedLines, sp.SharedZipf)
	if sched == Distributed {
		p.per = max(sp.SharedLines/cores, 1)
		p.zipfSlice = sim.NewZipf(p.per, sp.SharedZipf)
	}
	return p
}

// stream returns the instruction stream of one wavefront of the plan.
func (p *plan) stream(coreID, waveID int) core.Program {
	sp := &p.spec
	h := p.seed
	h = h*1099511628211 + uint64(coreID)
	h = h*1099511628211 + uint64(waveID)
	for _, ch := range sp.Name {
		h = h*1099511628211 + uint64(ch)
	}
	g := &gen{plan: p, rng: *sim.NewRNG(h)}
	if p.sched == Distributed && sp.SharedLines > 0 {
		g.sliceBase = (coreID * p.per) % sp.SharedLines
	}
	slot := uint64(coreID*maxWaveSlots + waveID)
	// Region spacing is forced odd and the stream starts at a random offset:
	// otherwise every wavefront's k-th access shares one address residue and
	// the whole machine convoys on a single L2 slice / memory channel.
	spacing := uint64(sp.PrivateLines + 65)
	spacing |= 1
	g.privBase = privateRegionBase + slot*spacing
	g.privCursor = g.rng.Uint64() % uint64(sp.PrivateLines)
	return g
}

// gen is one wavefront's cursor over its app's plan: everything that differs
// between wavefronts, and nothing that does not.
type gen struct {
	*plan // shared with every wavefront of the app; never written
	rng   sim.RNG

	privBase    uint64
	privCursor  uint64
	sliceBase   int // first line of this core's Distributed slice
	memCount    int64
	computeLeft int
	primed      bool

	// scratch backs the Lines slice of the op most recently returned by Next.
	// The core copies Lines at the issue site before calling Next again, and
	// trace.Capture deep-copies, so reuse is safe and keeps the generator
	// allocation-free in steady state.
	scratch []uint64
}

// Next implements core.Program. The stream is infinite: runs use fixed
// measurement windows, not program completion.
func (g *gen) Next() core.Op {
	if !g.primed {
		g.primed = true
		g.computeLeft = g.spec.ComputePerMem
	}
	if g.computeLeft > 0 {
		g.computeLeft--
		return core.Op{Kind: core.OpCompute, Latency: g.spec.ComputeLat}
	}
	g.computeLeft = g.spec.ComputePerMem
	return g.memOp()
}

func (g *gen) memOp() core.Op {
	g.memCount++
	r := g.rng.Float64()
	kind := core.OpLoad
	switch {
	case r < g.spec.NonL1Frac:
		kind = core.OpNonL1
	case r < g.spec.NonL1Frac+g.spec.AtomicFrac:
		kind = core.OpAtomic
	case r < g.spec.NonL1Frac+g.spec.AtomicFrac+g.spec.WriteFrac:
		kind = core.OpStore
	}
	if kind == core.OpNonL1 {
		line := nonL1RegionBase + uint64(g.rng.Intn(nonL1Lines))
		g.scratch = append(g.scratch[:0], line)
		return core.Op{Kind: kind, Lines: g.scratch, Bytes: mem128()}
	}
	lines := g.dataLines()
	blocking := false
	if kind == core.OpLoad && g.spec.BlockEvery > 0 && g.memCount%int64(g.spec.BlockEvery) == 0 {
		blocking = true
	}
	return core.Op{Kind: kind, Lines: lines, Bytes: g.spec.Bytes, Blocking: blocking}
}

func mem128() int { return 128 }

// dataLines draws the coalesced target lines of one memory instruction into
// the generator's scratch buffer (see the scratch field for the contract).
func (g *gen) dataLines() []uint64 {
	n := g.spec.CoalescedLines
	lines := g.scratch[:0]
	if g.spec.SharedLines > 0 && g.rng.Float64() < g.spec.SharedFrac {
		idx := g.sharedIndex()
		stride := uint64(1)
		if g.spec.CampStride > 1 && g.rng.Float64() < g.spec.CampFrac {
			stride = uint64(g.spec.CampStride)
		}
		base := sharedRegionBase + g.spec.shiftShared
		for i := 0; i < n; i++ {
			j := (idx + i) % g.spec.SharedLines
			lines = append(lines, base+uint64(j)*stride)
		}
		g.scratch = lines
		return lines
	}
	// Private streaming: sequential lines with wrap-around.
	for i := 0; i < n; i++ {
		lines = append(lines, g.privBase+(g.privCursor%uint64(g.spec.PrivateLines)))
		g.privCursor++
	}
	g.scratch = lines
	return lines
}

// sharedIndex picks an index in the shared region. Under the Distributed
// scheduler, half the draws come from a per-core slice: nearby CTAs (mapped
// to the same core) share data, so part of the inter-core sharing becomes
// core-local.
func (g *gen) sharedIndex() int {
	s := g.spec.SharedLines
	if g.sched == Distributed && g.rng.Float64() < 0.5 {
		return (g.sliceBase + g.zipfSlice.Draw(&g.rng)) % s
	}
	return g.zipfAll.Draw(&g.rng)
}

// registry --------------------------------------------------------------

var registry []Spec

func register(s Spec) { registry = append(registry, s) }

// Apps returns all application specs, sorted by name.
func Apps() []Spec {
	out := make([]Spec, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName finds a spec.
func ByName(name string) (Spec, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// ByClass returns the specs of one class, sorted by name.
func ByClass(c Class) []Spec {
	var out []Spec
	for _, s := range Apps() {
		if s.Class == c {
			out = append(out, s)
		}
	}
	return out
}

// Sensitive returns the 12 replication-sensitive applications.
func Sensitive() []Spec { return ByClass(ReplicationSensitive) }

// Poor returns the 5 poor-performing replication-insensitive applications.
func Poor() []Spec { return ByClass(PoorPerforming) }

// InsensitiveApps returns every replication-insensitive application
// (PoorPerforming plus Insensitive).
func InsensitiveApps() []Spec {
	return append(Poor(), ByClass(Insensitive)...)
}

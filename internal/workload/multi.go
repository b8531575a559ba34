package workload

import (
	"strings"

	"dcl1sim/internal/core"
)

// Partition runs different applications on disjoint core ranges — the
// concurrent-kernel (multiprogramming) scenario. It is a natural extension
// study for the clustered DC-L1 design: when partition boundaries align with
// cluster boundaries, one application's working set cannot evict another's,
// whereas the fully shared organization mixes them.
type Partition struct {
	// Apps are assigned to cores round-robin by contiguous blocks:
	// core c runs Apps[c * len(Apps) / cores].
	Apps []Spec
}

var _ Source = Partition{}

// Label implements Source.
func (p Partition) Label() string {
	names := make([]string, len(p.Apps))
	for i, a := range p.Apps {
		names[i] = a.Name
	}
	return strings.Join(names, "+")
}

// partitioned is a Partition fixed to one machine. Because Source.WavesFor
// does not receive the core count, it keeps the block boundaries at multiples
// of blockCores (set by NewPartition).
type partitioned struct {
	Partition
	blockCores int
}

// NewPartition builds a Partition source for a machine with `cores` cores,
// splitting them into equal contiguous blocks, one per app. It panics when
// apps is empty or cores < len(apps).
func NewPartition(cores int, apps ...Spec) Source {
	if len(apps) == 0 {
		panic("workload: NewPartition needs at least one app")
	}
	if cores < len(apps) {
		panic("workload: fewer cores than partitions")
	}
	return partitioned{Partition: Partition{Apps: apps}, blockCores: cores / len(apps)}
}

// WavesFor implements Source.
func (p partitioned) WavesFor(coreID int) int {
	return p.Apps[p.index(coreID)].WavesFor(coreID)
}

// Program implements Source. Each app keeps its own shared region: the seed
// is offset by the partition index so different apps never collide in the
// shared address space, and the private regions are disjoint by construction
// (per core/wave slots).
func (p partitioned) Program(cores, coreID, waveID int, sched Sched, seed uint64) core.Program {
	i := p.index(coreID)
	return tenantPlan(p.Apps[i], i, cores, sched, seed).stream(coreID, waveID)
}

func (p partitioned) streams(cores int, sched Sched, seed uint64) func(coreID, waveID int) core.Program {
	plans := make([]*plan, len(p.Apps))
	for i := range plans {
		plans[i] = tenantPlan(p.Apps[i], i, cores, sched, seed)
	}
	return func(coreID, waveID int) core.Program {
		return plans[p.index(coreID)].stream(coreID, waveID)
	}
}

// index returns the partition covering a core.
func (p partitioned) index(coreID int) int {
	return min(coreID/p.blockCores, len(p.Apps)-1)
}

// tenantPlan plans the idx-th co-running app of a multiprogram workload: its
// shared region shifts by idx so applications do not share lines with each
// other, and its seed is offset by idx. idx 0 runs the app as it runs alone.
func tenantPlan(s Spec, idx, cores int, sched Sched, seed uint64) *plan {
	s.shiftShared = uint64(idx) * (1 << 24)
	return s.plan(cores, sched, seed+uint64(idx)*977)
}

// ModuleSource lets a Source customize per-module tenant placement in a
// multi-GPU machine: the builder calls ForModule once per module and programs
// that module's cores from the returned Source. Sources that do not implement
// it run the same program image on every module.
type ModuleSource interface {
	Source
	// ForModule returns the Source programming one module's cores.
	ForModule(module, modules int) Source
}

// ModuleMix places one tenant application per GPU module — the multi-GPU
// multiprogramming scenario (each module leased to a different job). Apps are
// assigned round-robin: module m runs Apps[m % len(Apps)]. Each tenant keeps
// its own shared region (shifted per module) and a per-module seed offset,
// the same isolation idiom Partition uses within one module. Used as a plain
// Source (single-module machine), it runs Apps[0] unshifted.
type ModuleMix struct {
	Apps []Spec
}

var _ ModuleSource = ModuleMix{}

// Label implements Source.
func (m ModuleMix) Label() string {
	names := make([]string, len(m.Apps))
	for i, a := range m.Apps {
		names[i] = a.Name
	}
	return strings.Join(names, "/")
}

// WavesFor implements Source (module 0's tenant).
func (m ModuleMix) WavesFor(coreID int) int {
	if len(m.Apps) == 0 {
		return 0
	}
	return m.Apps[0].WavesFor(coreID)
}

// Program implements Source (module 0's tenant, unshifted).
func (m ModuleMix) Program(cores, coreID, waveID int, sched Sched, seed uint64) core.Program {
	return m.Apps[0].Program(cores, coreID, waveID, sched, seed)
}

// ForModule implements ModuleSource. It panics when the mix has no apps.
func (m ModuleMix) ForModule(module, modules int) Source {
	if len(m.Apps) == 0 {
		panic("workload: ModuleMix needs at least one app")
	}
	return moduleTenant{spec: m.Apps[module%len(m.Apps)], idx: module}
}

// moduleTenant is one module's view of a ModuleMix: the tenant spec with the
// module-scoped shared-region shift and seed offset applied.
type moduleTenant struct {
	spec Spec
	idx  int
}

// Label implements Source.
func (t moduleTenant) Label() string { return t.spec.Name }

// WavesFor implements Source.
func (t moduleTenant) WavesFor(coreID int) int { return t.spec.WavesFor(coreID) }

// Program implements Source. Module 0 runs its tenant exactly as a
// single-module machine would (zero shift, zero seed offset).
func (t moduleTenant) Program(cores, coreID, waveID int, sched Sched, seed uint64) core.Program {
	return tenantPlan(t.spec, t.idx, cores, sched, seed).stream(coreID, waveID)
}

func (t moduleTenant) streams(cores int, sched Sched, seed uint64) func(coreID, waveID int) core.Program {
	return tenantPlan(t.spec, t.idx, cores, sched, seed).stream
}

// Partition implements Source directly too (blockCores derived lazily per
// call via the cores argument) — but WavesFor lacks the core count, so the
// explicit NewPartition constructor is the supported path.
func (p Partition) WavesFor(coreID int) int {
	if len(p.Apps) == 0 {
		return 0
	}
	return p.Apps[0].WavesFor(coreID)
}

// Program implements Source for the raw Partition (equal blocks).
func (p Partition) Program(cores, coreID, waveID int, sched Sched, seed uint64) core.Program {
	return NewPartition(cores, p.Apps...).Program(cores, coreID, waveID, sched, seed)
}

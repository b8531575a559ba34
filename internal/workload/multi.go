package workload

import (
	"fmt"
	"strings"

	"dcl1sim/internal/core"
)

// partition runs different applications on disjoint core ranges — the
// concurrent-kernel (multiprogramming) scenario. It is a natural extension
// study for the clustered DC-L1 design: when partition boundaries align with
// cluster boundaries, one application's working set cannot evict another's,
// whereas the fully shared organization mixes them. Because Source.WavesFor
// does not receive the core count, it is fixed to one machine: block
// boundaries sit at multiples of blockCores.
type partition struct {
	apps       []Spec
	blockCores int
}

// NewPartition builds the multiprogram source for a machine with `cores` cores,
// splitting them into equal contiguous blocks, one per app: core c runs
// apps[c / (cores / len(apps))], the last block taking any remainder. It
// panics when apps is empty or cores < len(apps).
func NewPartition(cores int, apps ...Spec) Source {
	if len(apps) == 0 {
		panic("workload: NewPartition needs at least one app")
	}
	if cores < len(apps) {
		panic("workload: fewer cores than partitions")
	}
	return partition{apps: apps, blockCores: cores / len(apps)}
}

// Label implements Source.
func (p partition) Label() string {
	names := make([]string, len(p.apps))
	for i, a := range p.apps {
		names[i] = a.Name
	}
	return strings.Join(names, "+")
}

// Key implements Source: the block size and each part's content, in order.
func (p partition) Key() string {
	keys := make([]string, len(p.apps))
	for i, a := range p.apps {
		keys[i] = a.Key()
	}
	return fmt.Sprintf("blocks of %d cores: %s", p.blockCores, strings.Join(keys, " "))
}

// WavesFor implements Source.
func (p partition) WavesFor(coreID int) int {
	return p.apps[p.index(coreID)].WavesFor(coreID)
}

// Program implements Source. Each app keeps its own shared region: the seed
// is offset by the partition index so different apps never collide in the
// shared address space, and the private regions are disjoint by construction
// (per core/wave slots).
func (p partition) Program(cores, coreID, waveID int, sched Sched, seed uint64) core.Program {
	i := p.index(coreID)
	return tenantPlan(p.apps[i], i, cores, sched, seed).stream(coreID, waveID)
}

func (p partition) streams(cores int, sched Sched, seed uint64) func(coreID, waveID int) core.Program {
	plans := make([]*plan, len(p.apps))
	for i := range plans {
		plans[i] = tenantPlan(p.apps[i], i, cores, sched, seed)
	}
	return func(coreID, waveID int) core.Program {
		return plans[p.index(coreID)].stream(coreID, waveID)
	}
}

// index returns the partition covering a core.
func (p partition) index(coreID int) int {
	return min(coreID/p.blockCores, len(p.apps)-1)
}

// tenantPlan plans the idx-th co-running app of a multiprogram workload: its
// shared region shifts by idx so applications do not share lines with each
// other, and its seed is offset by idx. idx 0 runs the app as it runs alone.
func tenantPlan(s Spec, idx, cores int, sched Sched, seed uint64) *plan {
	s.shiftShared = uint64(idx) * (1 << 24)
	return s.plan(cores, sched, seed+uint64(idx)*977)
}

package gpu

import (
	"fmt"

	"dcl1sim/internal/chaos"
)

// InstallChaos arms deterministic fault injection on every component chaos
// perturbs: each module's, then the link crossbars of a linked machine. Each
// such component takes its injector from one factory, which numbers the
// streams in that walk, so every injector's stream is keyed by (spec.Seed,
// subsystem kind, the component's place in the walk) and the fault schedule
// is a pure function of the spec and the machine shape, independent of tick
// mode and wall-clock — see the chaos package doc. Must be called before the
// first cycle runs; calling it twice or with an invalid spec returns an
// error. A nil spec is a no-op.
//
// The MeshBase mesh is not perturbed (its routers don't share the crossbar's
// grant/jam surface); mesh designs still get core, cache, and DRAM faults.
func (s *System) InstallChaos(spec *chaos.Spec) error {
	if spec == nil {
		return nil
	}
	if s.chaosSpec != nil {
		return fmt.Errorf("gpu: chaos already installed")
	}
	if s.CoreClk.Now() != 0 {
		return fmt.Errorf("gpu: chaos installed after cycle 0 (now %d)", s.CoreClk.Now())
	}
	norm, err := spec.Normalized()
	if err != nil {
		return err
	}
	s.chaosSpec = norm
	id := 0
	for _, p := range s.owners() {
		arm := func(kind chaos.Kind, name string) *chaos.Injector {
			in := chaos.New(norm, kind, id, name)
			id++
			p.injectors = append(p.injectors, in)
			return in
		}
		for _, c := range p.comps {
			if a, ok := c.(armer); ok {
				a.ArmChaos(arm)
			}
		}
	}
	return nil
}

// armer is a component chaos perturbs: it takes its injector from the
// machine's factory.
type armer interface {
	ArmChaos(arm func(chaos.Kind, string) *chaos.Injector)
}

// owners returns the parts of every owner of components: the modules in
// order, then the machine's link.
func (s *System) owners() []*parts {
	out := make([]*parts, 0, len(s.Mods)+1)
	for _, mod := range s.Mods {
		out = append(out, &mod.parts)
	}
	return append(out, &s.linkParts)
}

// allInjectors returns every injector of the machine, modules in order, then
// the link's.
func (s *System) allInjectors() []*chaos.Injector {
	var out []*chaos.Injector
	for _, p := range s.owners() {
		out = append(out, p.injectors...)
	}
	return out
}

// ChaosEvents returns the merged recorded fault schedule across all injectors
// (empty unless the spec set Record). Cycles are each component's local
// clock; the canonical rendering is chaos.FormatEvents.
func (s *System) ChaosEvents() []chaos.Event {
	var out []chaos.Event
	for _, in := range s.allInjectors() {
		out = append(out, in.Events()...)
	}
	chaos.SortEvents(out)
	return out
}

// FaultsInjected returns the total fault occurrences across all injectors,
// cumulative since construction (warmup included — the schedule is a property
// of the whole run, not the measurement window).
func (s *System) FaultsInjected() int64 {
	return fired(s.allInjectors())
}

// fired sums the fault occurrences of a set of injectors.
func fired(ins []*chaos.Injector) int64 {
	var n int64
	for _, in := range ins {
		n += in.Fired()
	}
	return n
}

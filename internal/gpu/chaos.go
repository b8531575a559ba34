package gpu

import (
	"fmt"

	"dcl1sim/internal/chaos"
)

// InstallChaos arms deterministic fault injection on every component of
// every module, plus the link crossbars of a linked machine. Each component
// receives its own injector stream keyed by (spec.Seed, subsystem kind,
// component index), so the fault schedule is a pure function of the spec and
// the machine shape, independent of tick mode and wall-clock —
// see the chaos package doc. Component indices are machine-global: one
// counter per subsystem kind, walked in module order, link last (module 1's
// first core is KindCore index Cores, not 0). Must be called before the first
// cycle runs; calling it twice or with an invalid spec returns an error. A
// nil spec is a no-op.
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
	next := make(map[chaos.Kind]int)
	for _, mod := range s.Mods {
		mod.armChaos(norm, next)
	}
	for _, x := range s.Link.crossbars() {
		in := chaos.New(norm, chaos.KindNoC, next[chaos.KindNoC], x.P.Name)
		next[chaos.KindNoC]++
		s.linkInjectors = append(s.linkInjectors, in)
		x.Chaos = in
	}
	return nil
}

// armChaos installs this module's per-component injectors, drawing each
// kind's component index from next and advancing it.
func (mod *Module) armChaos(norm *chaos.Spec, next map[chaos.Kind]int) {
	add := func(kind chaos.Kind, name string) *chaos.Injector {
		in := chaos.New(norm, kind, next[kind], name)
		next[kind]++
		mod.injectors = append(mod.injectors, in)
		return in
	}
	for i, c := range mod.Cores {
		c.Chaos = add(chaos.KindCore, mod.cname(fmt.Sprintf("core-%d", i)))
	}
	for _, n := range mod.Nodes {
		n.Ctrl.Chaos = add(chaos.KindL1, n.Ctrl.P.Name)
	}
	for _, l2 := range mod.L2 {
		l2.Chaos = add(chaos.KindL2, l2.P.Name)
	}
	for _, st := range mod.Stages {
		for _, x := range st.crossbars() {
			x.Chaos = add(chaos.KindNoC, x.P.Name)
		}
	}
	for _, dc := range mod.Drams {
		dc.Chaos = add(chaos.KindDram, dc.P.Name)
	}
}

// allInjectors returns every injector of the machine, modules in order, then
// the link's.
func (s *System) allInjectors() []*chaos.Injector {
	var out []*chaos.Injector
	for _, mod := range s.Mods {
		out = append(out, mod.injectors...)
	}
	return append(out, s.linkInjectors...)
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

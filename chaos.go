package dcl1

import (
	"dcl1sim/internal/chaos"
)

// ChaosSpec configures deterministic fault injection (see internal/chaos):
// NoC flit delays and transient output jams, DRAM timing jitter and refresh
// storms, cache fill stalls and forced MSHR-exhaustion windows, core issue
// stalls — plus two destructive drills (JamAllAfter, CorruptAt) that exist to
// prove the health layer fires. Every injection is a pure function of
// (Seed, component, cycle), so a chaotic run is exactly as replayable as a
// clean one: same (seed, spec) ⇒ byte-identical fault schedule and Results in
// either tick mode.
type ChaosSpec = chaos.Spec

// ChaosLight returns a mild all-subsystem timing-fault preset.
func ChaosLight(seed uint64) *ChaosSpec { return chaos.Light(seed) }

// ChaosHeavy returns an aggressive timing-fault preset: long jams, frequent
// refresh storms, deep MSHR pinches. A correct simulator slows down under it
// but neither deadlocks nor corrupts state.
func ChaosHeavy(seed uint64) *ChaosSpec { return chaos.Heavy(seed) }

// ChaosPreset resolves "off" (or ""), "light", or "heavy" to a spec; unknown
// names error. The cmds' -chaos flag goes through this.
func ChaosPreset(name string, seed uint64) (*ChaosSpec, error) {
	return chaos.Preset(name, seed)
}

// WithChaos arms fault injection for the run (or every job of a batch). The
// spec is validated when the run starts; a nil spec is a no-op.
//
//	r, err := dcl1.Run(cfg, d, app, dcl1.WithChaos(dcl1.ChaosLight(42)))
func WithChaos(spec *ChaosSpec) RunOption {
	return func(rc *runConfig) { rc.h.Chaos = spec }
}

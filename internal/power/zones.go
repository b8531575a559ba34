package power

import "fmt"

// Power zones, modeled after the NVML reporting scopes GPU monitoring tools
// expose (my-gpu-exporter's power domains): the compute side (cores + L1 +
// NoC#1), the memory side (L2 + DRAM + NoC#2), and the whole module. Each
// zone's power is reconstructed from activity counters the components
// already maintain — events since the last sample divided by the simulated
// wall time of the window, times a per-event energy, plus a static leakage
// term — so metering adds nothing to tick paths.

// Zone scope names. Zone membership is wired by the system builder; these
// names are the stable identifiers caps and metrics use.
const (
	ZoneGPU    = "gpu"
	ZoneMemory = "memory"
	ZoneModule = "module"
)

// ZoneTerm is one dynamic contribution to a zone: a cumulative event counter
// and the energy cost per event (nominal joules at the model's calibration).
type ZoneTerm struct {
	Energy float64
	Count  func() int64
}

// Zone is one named power domain: a constant static term plus dynamic terms.
type Zone struct {
	Name   string
	Static float64 // watts of leakage + always-on clocking
	Terms  []ZoneTerm
}

// Per-event energies, in nominal nanojoules. These calibrate the model's
// activity counters against a ~250 W discrete GPU at saturation; the
// absolute scale is presentational — capping and trend analysis depend only
// on the counters, which are exact.
const (
	EnergyPerInstruction = 1.1  // nJ per issued instruction (pipeline + RF)
	EnergyPerL1Access    = 2.1  // nJ per L1 lookup
	EnergyPerL2Access    = 4.6  // nJ per L2 slice lookup
	EnergyPerDramAccess  = 28.0 // nJ per DRAM burst (activate amortized)
	EnergyPerNoc1Flit    = 1.3  // nJ per NoC#1 flit traversal
	EnergyPerNoc2Flit    = 2.4  // nJ per NoC#2 flit traversal (longer links)
	nJ                   = 1e-9
)

// Static (leakage + always-on clocking) terms per component instance, in
// nominal watts at the same calibration.
const (
	StaticCoreWatts    = 0.55 // pipeline, register file, scheduler
	StaticL1Watts      = 0.06 // per L1/DC-L1 node, tags + MSHRs
	StaticL2Watts      = 0.35 // per L2 slice
	StaticChannelWatts = 1.6  // per DRAM channel interface
	StaticModuleWatts  = 18.0 // board overhead: regulators, fan, PCB
)

// Meter converts zone counter deltas into per-zone watts at sample points.
// It is advanced only from clock-barrier tasks (serially), so it needs no
// locking.
type Meter struct {
	zones []Zone
	last  [][]int64 // per-zone, per-term counter value at the last sample
	watts []float64
}

// NewMeter builds a meter over the zones and baselines every counter at the
// current values.
func NewMeter(zones []Zone) *Meter {
	m := &Meter{zones: zones, watts: make([]float64, len(zones))}
	m.last = make([][]int64, len(zones))
	for i, z := range zones {
		m.last[i] = make([]int64, len(z.Terms))
	}
	m.Rebase()
	return m
}

// Rebase re-baselines every counter at its current value and zeroes the
// window watts. Called at measurement start (after the warmup reset) so the
// first window never sees negative deltas.
func (m *Meter) Rebase() {
	for i, z := range m.zones {
		for j, t := range z.Terms {
			m.last[i][j] = t.Count()
		}
		m.watts[i] = z.Static
	}
}

// Advance closes the current window: seconds of simulated time since the
// last call. Each zone's watts become static + dynamic energy over the
// window. A zero-length window keeps the previous reading.
func (m *Meter) Advance(seconds float64) {
	if seconds <= 0 {
		return
	}
	for i, z := range m.zones {
		joules := 0.0
		for j, t := range z.Terms {
			now := t.Count()
			joules += float64(now-m.last[i][j]) * t.Energy * nJ
			m.last[i][j] = now
		}
		m.watts[i] = z.Static + joules/seconds
	}
}

// Watts returns the last closed window's power for the named zone (0 for an
// unknown zone).
func (m *Meter) Watts(zone string) float64 {
	for i, z := range m.zones {
		if z.Name == zone {
			return m.watts[i]
		}
	}
	return 0
}

// Zones returns the zone names in wiring order.
func (m *Meter) Zones() []string {
	names := make([]string, len(m.zones))
	for i, z := range m.zones {
		names[i] = z.Name
	}
	return names
}

// CapSpec arms the power-capping governor: when the named zone's metered
// power exceeds BudgetWatts at a sample point, the governor raises the core
// duty-cycle throttle one step; when it falls below ~90% of the budget, it
// backs the throttle off one step. Throttle state changes only at sample
// points (clock barriers), so every core of an edge issues under the same
// level and capped runs remain deterministic.
type CapSpec struct {
	// Zone is the governed scope: ZoneGPU, ZoneMemory, or ZoneModule
	// (default ZoneModule).
	Zone string
	// BudgetWatts is the zone power budget. Must be positive.
	BudgetWatts float64
	// MaxLevel caps the throttle depth in eighths of issue slots withheld:
	// level L gates L of every 8 core cycles. 0 selects 6 (still 25% issue
	// capacity at full throttle); the range is 1..7.
	MaxLevel int
}

// Validate normalizes the spec in place and rejects impossible budgets.
func (c *CapSpec) Validate() error {
	if c.Zone == "" {
		c.Zone = ZoneModule
	}
	switch c.Zone {
	case ZoneGPU, ZoneMemory, ZoneModule:
	default:
		return fmt.Errorf("power: unknown zone %q (want %s, %s, or %s)",
			c.Zone, ZoneGPU, ZoneMemory, ZoneModule)
	}
	if c.BudgetWatts <= 0 {
		return fmt.Errorf("power: cap budget must be positive, got %g", c.BudgetWatts)
	}
	if c.MaxLevel == 0 {
		c.MaxLevel = 6
	}
	if c.MaxLevel < 1 || c.MaxLevel > 7 {
		return fmt.Errorf("power: cap max level %d outside [1, 7]", c.MaxLevel)
	}
	return nil
}

package gpu

import "dcl1sim/internal/workload"

// Job is one simulation in a sweep.
type Job struct {
	Cfg Config
	D   Design
	App workload.Source
}

// SafeLabel names a workload for dumps, point keys and progress lines
// without trusting app.Label(): it is caller code and may panic (a checked
// run's panic barrier may be describing a panic raised by the workload source
// itself), and that must degrade to a placeholder, not kill a sweep worker
// outside the per-attempt barrier.
func SafeLabel(app workload.Source) (label string) {
	defer func() {
		if recover() != nil {
			label = "<unlabeled>"
		}
	}()
	if app == nil {
		return "<nil>"
	}
	return app.Label()
}

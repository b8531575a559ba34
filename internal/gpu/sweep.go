package gpu

import "dcl1sim/internal/workload"

// Job is one simulation in a sweep.
type Job struct {
	Cfg Config
	D   Design
	App workload.Source
}

// safeLabel reads app.Label() without trusting it: a checked run's panic
// barrier may be describing a panic raised by the workload source itself.
func safeLabel(app workload.Source) (label string) {
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

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
func SafeLabel(app workload.Source) string { return guarded(app, workload.Source.Label) }

// SafeKey reads app's content key through the same guard.
func SafeKey(app workload.Source) string { return guarded(app, workload.Source.Key) }

func guarded(app workload.Source, read func(workload.Source) string) (s string) {
	defer func() {
		if recover() != nil {
			s = "<unlabeled>"
		}
	}()
	if app == nil {
		return "<nil>"
	}
	return read(app)
}

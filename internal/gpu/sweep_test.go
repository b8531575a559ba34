package gpu

import (
	"errors"
	"testing"

	"dcl1sim/internal/health"
	"dcl1sim/internal/workload"
)

// labelPanicApp builds and runs like its Spec but panics when asked for its
// label — which the run reads to stamp its results.
type labelPanicApp struct{ workload.Spec }

func (labelPanicApp) Label() string { panic("injected label panic") }

// TestRunCheckedSurvivesPanickingLabel pins the run's one recover handler: a
// panic raised by Source.Label inside (*System).RunChecked comes back as a
// *health.SimError (the handler must not call Label again to describe it),
// on a machine of one module and of two.
func TestRunCheckedSurvivesPanickingLabel(t *testing.T) {
	for _, d := range bothShapes(Design{Kind: Shared, DCL1s: 4}) {
		s := NewSystem(testCfg(), d, labelPanicApp{sharingApp()})
		_, err := s.RunChecked(HealthOptions{})
		var se *health.SimError
		if !errors.As(err, &se) {
			t.Fatalf("%s: want *health.SimError, got %v", d.Name(), err)
		}
		if se.App != "<unlabeled>" || se.Design != d.Name() || se.Stack == "" {
			t.Errorf("%s: SimError = {Design %q App %q stack %d bytes}", d.Name(), se.Design, se.App, len(se.Stack))
		}
	}
}

package dcl1

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// TestRunOptionsOrderIndependent pins WithHealth's promise: it overlays only
// the stall window and deadline, so a context, chaos spec,
// legacy-tick flag, metrics sink or power cap survives it whether it comes
// before or after.
func TestRunOptionsOrderIndependent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h := HealthOptions{StallWindow: 123, Deadline: time.Minute}
	others := []RunOption{
		WithContext(ctx), WithChaos(ChaosLight(3)), WithLegacyTick(),
		WithMetrics(MetricsOptions{Every: 64}), WithPowerCap(PowerCap{BudgetWatts: 50}),
	}
	before := applyOptions(append([]RunOption{WithHealth(h)}, others...)).h
	after := applyOptions(append(append([]RunOption{}, others...), WithHealth(h))).h
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("WithHealth order changes the options:\n  first %+v\n  last  %+v", before, after)
	}
	if after.Ctx != ctx || after.Chaos == nil || !after.LegacyTick || after.Metrics == nil || after.PowerCap == nil {
		t.Fatalf("options lost around WithHealth: %+v", after)
	}
	if after.StallWindow != h.StallWindow || after.Deadline != h.Deadline {
		t.Fatalf("WithHealth's own knobs lost: %+v", after)
	}
}

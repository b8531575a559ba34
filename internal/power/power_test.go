package power

import (
	"math"
	"testing"
	"testing/quick"
)

// within checks a calibration target from the paper, with generous tolerances
// — the model only needs to land in the reported neighbourhood. (The NoC area
// and static-power targets are checked in internal/gpu, on the shapes the
// simulator builds.)
func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.3f, want %.3f ± %.2f", name, got, want, tol)
	}
}

func TestMaxFreqShape(t *testing.T) {
	// Fig 13b: baseline and Sh40 crossbars cannot double 700 MHz; the small
	// Pr40 (2×1) and Sh40+C10 (8×4) crossbars can.
	if f := MaxFreqMHz(80, 32); f >= 1400 {
		t.Errorf("80x32 fmax = %.0f, must be < 1400", f)
	}
	if f := MaxFreqMHz(80, 40); f >= 1400 {
		t.Errorf("80x40 fmax = %.0f, must be < 1400", f)
	}
	if f := MaxFreqMHz(8, 4); f < 1400 {
		t.Errorf("8x4 fmax = %.0f, must be >= 1400", f)
	}
	if f := MaxFreqMHz(2, 1); f < MaxFreqMHz(8, 4) {
		t.Error("2x1 must clock above 8x4")
	}
	// All crossbars can run the 700 MHz baseline.
	for _, pq := range [][2]int{{80, 32}, {80, 40}, {40, 32}, {10, 8}} {
		if f := MaxFreqMHz(pq[0], pq[1]); f < 700 {
			t.Errorf("%dx%d fmax = %.0f < 700", pq[0], pq[1], f)
		}
	}
	if MaxFreqMHz(0, 4) != 0 {
		t.Error("invalid ports must give 0")
	}
}

func TestMaxFreqMonotone(t *testing.T) {
	f := func(a, b uint8) bool {
		in1, out1 := int(a%100)+1, int(b%100)+1
		// Growing either dimension can only lower fmax.
		return MaxFreqMHz(in1+1, out1) <= MaxFreqMHz(in1, out1)+1e-9 &&
			MaxFreqMHz(in1, out1+1) <= MaxFreqMHz(in1, out1)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCacheAreaCalibration(t *testing.T) {
	totalL1 := 80 * 32 * 1024
	base := CacheArea(totalL1, 80)
	agg := CacheArea(totalL1, 40)
	// Fig 18b: aggregating into 40 nodes saves ~8% cache area.
	within(t, "40-node cache area", agg/base, 0.92, 0.02)
	// Boosted baseline: 2× capacity at 80 nodes costs ~+84%.
	boost := CacheArea(2*totalL1, 80)
	within(t, "2x capacity area", boost/base, 1.84, 0.05)
}

func TestCacheAccessLatency(t *testing.T) {
	if got := CacheAccessLatency(32*1024, 28); got != 28 {
		t.Errorf("32KB latency = %d", got)
	}
	// Paper: 64 KB DC-L1 = 30 cycles (7% increase over 28).
	if got := CacheAccessLatency(64*1024, 28); got != 30 {
		t.Errorf("64KB latency = %d, want 30", got)
	}
	if got := CacheAccessLatency(16*32*1024, 28); got != 36 {
		t.Errorf("16x capacity latency = %d, want 36", got)
	}
	// Zero base latency sweeps (Fig 19b) stay non-negative.
	if got := CacheAccessLatency(64*1024, 0); got != 2 {
		t.Errorf("zero-base 64KB latency = %d, want 2", got)
	}
	if got := CacheAccessLatency(0, 28); got != 28 {
		t.Errorf("degenerate size must return base, got %d", got)
	}
}

func TestQueueAreaOverhead(t *testing.T) {
	// Fig 18b: queues across 40 DC-L1 nodes ≈ 6.25% of total baseline L1.
	totalL1 := float64(80 * 32 * 1024)
	over := QueueArea(40) / totalL1
	within(t, "queue overhead", over, 0.0625, 0.001)
}

func TestDynamicPowerScalesWithTraffic(t *testing.T) {
	// Sh40+C10+Boost's inventory (gpu.DesignNoCSpec pins the projection).
	spec := NoCSpec{Xbars: []XbarSpec{
		{In: 8, Out: 4, Count: 10, FlitBytes: 32, FreqMHz: 1400, LinkMM: ShortLinkMM},
		{In: 10, Out: 8, Count: 4, FlitBytes: 32, FreqMHz: 700, LinkMM: LongLinkMM},
	}}
	p1 := spec.DynamicPower([]int64{1000, 1000}, 1.0)
	p2 := spec.DynamicPower([]int64{2000, 2000}, 1.0)
	if p2 <= p1 {
		t.Error("dynamic power must grow with flit count")
	}
	// Same flits in half the time = double power.
	p3 := spec.DynamicPower([]int64{1000, 1000}, 0.5)
	if math.Abs(p3-2*p1) > 1e-9 {
		t.Errorf("p3 = %f, want %f", p3, 2*p1)
	}
	if spec.DynamicPower([]int64{1}, 1.0) != 0 {
		t.Error("mismatched flit vector must give 0")
	}
	if spec.DynamicPower([]int64{1, 1}, 0) != 0 {
		t.Error("zero time must give 0")
	}
}

func TestEnergyPerFlitComponents(t *testing.T) {
	small := EnergyPerFlit(2, 1, 32, 0)
	big := EnergyPerFlit(80, 32, 32, 0)
	if big <= small {
		t.Error("bigger crossbars must cost more per flit")
	}
	short := EnergyPerFlit(8, 4, 32, ShortLinkMM)
	long := EnergyPerFlit(8, 4, 32, LongLinkMM)
	if long <= short {
		t.Error("longer links must cost more per flit")
	}
	wide := EnergyPerFlit(8, 4, 64, 0)
	if wide <= EnergyPerFlit(8, 4, 32, 0) {
		t.Error("wider flits must cost more")
	}
}

// Property: area and static power are positive and increase monotonically
// with port counts for any real crossbar.
func TestAreaMonotoneProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		in, out := int(a%64)+2, int(b%64)+2
		return CrossbarArea(in+1, out, 32) > CrossbarArea(in, out, 32) &&
			CrossbarArea(in, out+1, 32) > CrossbarArea(in, out, 32) &&
			CrossbarStaticPower(in+1, out, 32) > CrossbarStaticPower(in, out, 32)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

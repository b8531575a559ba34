package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Percentile(50) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must read zero")
	}
	for _, v := range []int64{1, 2, 4, 8, 100} {
		h.Add(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	if got := h.Mean(); math.Abs(got-23) > 1e-9 {
		t.Fatalf("mean = %f", got)
	}
	h.Add(-5) // clamps to 0
	if h.Min() != 0 {
		t.Fatal("negative sample must clamp to 0")
	}
}

func TestHistogramPercentileBounds(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Add(i)
	}
	// Sub-bucket interpolation: p50 of 1..1000 is 500, uniform data, so the
	// estimate lands within a few samples of the truth (the old top-of-bucket
	// bound answered 1024 here, 2x off).
	p50 := h.Percentile(50)
	if p50 < 492 || p50 > 508 {
		t.Fatalf("p50 = %d, want ~500", p50)
	}
	p100 := h.Percentile(100)
	if p100 != 1000 {
		t.Fatalf("p100 = %d, want max", p100)
	}
	if h.Percentile(-5) <= 0 || h.Percentile(200) != 1000 {
		t.Fatal("percentile clamping broken")
	}
}

func TestHistogramMergeEquivalence(t *testing.T) {
	f := func(a, b []uint16) bool {
		var h1, h2, all Histogram
		for _, v := range a {
			h1.Add(int64(v))
			all.Add(int64(v))
		}
		for _, v := range b {
			h2.Add(int64(v))
			all.Add(int64(v))
		}
		h1.Merge(&h2)
		return h1.Count() == all.Count() && h1.Mean() == all.Mean() &&
			h1.Min() == all.Min() && h1.Max() == all.Max() &&
			h1.Percentile(90) == all.Percentile(90)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the interpolated percentile stays within the log2 bucket of the
// true order statistic — error bounded by one bucket width, never the old 2x.
func TestHistogramPercentileBucketProperty(t *testing.T) {
	f := func(raw []uint16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		p := float64(pRaw % 101)
		var h Histogram
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
			h.Add(int64(v))
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		rank := int(math.Ceil(p / 100 * float64(len(vals))))
		if rank < 1 {
			rank = 1
		}
		truth := vals[rank-1]
		lo, width := int64(0), int64(2)
		if truth > 1 {
			b := bucketOf(truth)
			lo = int64(1) << uint(b)
			width = lo
		}
		got := h.Percentile(p)
		if got < h.Min() || got > h.Max() {
			return false
		}
		d := got - truth
		if d < 0 {
			d = -d
		}
		return d <= width && got >= lo || got == truth
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Percentile is monotone in p.
func TestHistogramPercentileMonotone(t *testing.T) {
	f := func(raw []uint16, aRaw, bRaw uint8) bool {
		var h Histogram
		for _, v := range raw {
			h.Add(int64(v))
		}
		a, b := float64(aRaw%101), float64(bRaw%101)
		if a > b {
			a, b = b, a
		}
		return h.Percentile(a) <= h.Percentile(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Edge cases the interpolation must get exactly right: empty, single sample,
// all zeros, and max-int (the old code's 1<<63 bucket top overflowed negative
// for samples at or above 2^62).
func TestHistogramPercentileEdgeCases(t *testing.T) {
	var empty Histogram
	if empty.Percentile(50) != 0 {
		t.Fatal("empty must read 0")
	}

	for _, v := range []int64{0, 1, 5, 1 << 40, math.MaxInt64} {
		var h Histogram
		h.Add(v)
		for _, p := range []float64{0, 50, 99, 100} {
			if got := h.Percentile(p); got != v {
				t.Fatalf("single sample %d: p%.0f = %d", v, p, got)
			}
		}
	}

	var zeros Histogram
	for i := 0; i < 100; i++ {
		zeros.Add(0)
	}
	if got := zeros.Percentile(99); got != 0 {
		t.Fatalf("all-zeros p99 = %d", got)
	}

	var big Histogram
	big.Add(1)
	big.Add(math.MaxInt64)
	for _, p := range []float64{99, 100} {
		got := big.Percentile(p)
		if got < 0 {
			t.Fatalf("p%.0f overflowed negative: %d", p, got)
		}
		if got != math.MaxInt64 {
			t.Fatalf("p%.0f = %d, want MaxInt64", p, got)
		}
	}
	var sums Histogram
	sums.Add(3)
	sums.Add(4)
	if sums.Sum() != 7 {
		t.Fatalf("Sum = %d", sums.Sum())
	}
}

func TestAggregates(t *testing.T) {
	if Mean(nil) != 0 || Geomean(nil) != 0 {
		t.Fatal("empty aggregates must be zero")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean = %f", g)
	}
	if Geomean([]float64{1, -1}) != 0 || Geomean([]float64{1, 0}) != 0 {
		t.Fatal("geomean with non-positive input must be 0")
	}
}

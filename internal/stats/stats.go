// Package stats provides the measurement primitives used across the
// simulator: log-bucketed histograms for latency distributions, and the
// aggregate helpers the figures reduce a sweep with. Everything is
// allocation-light so it can sit on simulation fast paths.
package stats

import "math"

// Histogram is a log2-bucketed histogram of non-negative integer samples
// (latencies in cycles, queue depths, burst sizes). Bucket 0 holds zeros and
// ones; bucket b >= 1 counts samples in [2^b, 2^(b+1)).
type Histogram struct {
	buckets [64]int64
	count   int64
	sum     int64
	min     int64
	max     int64
}

// Add records one sample; negative samples are clamped to zero.
func (h *Histogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

func bucketOf(v int64) int {
	b := 0
	for x := v; x > 1; x >>= 1 {
		b++
	}
	return b
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest sample (0 when empty).
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample.
func (h *Histogram) Max() int64 { return h.max }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Percentile returns the p-th percentile (p in [0,100]), estimated by linear
// interpolation of the rank's position inside its log2 bucket and clamped to
// the observed [min, max]. The estimate is always inside the containing
// bucket (the old top-of-bucket answer could overstate the true order
// statistic by up to 2x) and is exact for empty, single-sample, and
// single-valued populations.
func (h *Histogram) Percentile(p float64) int64 {
	if h.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := int64(math.Ceil(p / 100 * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, n := range h.buckets {
		if n == 0 {
			continue
		}
		if seen+n < rank {
			seen += n
			continue
		}
		// The rank lands in bucket b, which covers [lo, hi): {0, 1} for
		// bucket 0, [2^b, 2^(b+1)) above. Bucket 62's upper bound would
		// overflow int64, so the observed max stands in for it (any sample
		// there is >= 2^62, so max >= lo).
		lo, hi := int64(0), int64(2)
		if b > 0 {
			lo = int64(1) << uint(b)
			if b < 62 {
				hi = lo << 1
			} else {
				hi = h.max
			}
		}
		pos := rank - seen // 1..n within this bucket
		vf := float64(lo) + float64(hi-lo)*float64(pos)/float64(n)
		// Clamp in float space first: near bucket 62 the interpolated value
		// can round to 2^63, which does not fit an int64.
		if vf >= float64(h.max) {
			return h.max
		}
		v := int64(vf)
		if v < h.min {
			v = h.min
		}
		return v
	}
	return h.max
}

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	for b, n := range other.buckets {
		h.buckets[b] += n
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// Aggregate helpers ---------------------------------------------------------

// Mean returns the arithmetic mean (0 for empty input).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// Geomean returns the geometric mean of positive values (0 if any value is
// non-positive or the input is empty).
func Geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}

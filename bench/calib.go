package main

import (
	"sort"
	"time"
)

// Host-speed calibration.
//
// On the shared VM this benchmark is defined on, the host slows by 30-50 %
// for minutes at a time. The slow phases are a throughput effect (a busy SMT
// sibling or the like): a latency-bound reference — a pointer chase of any
// size, a dependent multiply chain — does not feel them at all, which is why
// an earlier attempt to normalise by a "4 MB arithmetic kernel" found nothing
// to normalise by; a throughput-bound one does (README.md, "Why p10, and why
// a reference kernel", has the measurements). So every gated host time is
// reported in reference seconds: wall seconds divided by hostFactor.

// calibNominalSeconds is one full-size calibrationKernel run (scale 1) on the
// defining host in a quiet phase; it only fixes the scale (hostFactor is about
// 1 there), never a comparison.
const calibNominalSeconds = 0.070

const (
	calibChainRounds = 20_000_000 // eight-chain multiply-add rounds at scale 1
	calibSortRounds  = 50         // fill-and-sort rounds of calibRecs records at scale 1
	calibRecs        = 4096
)

type calibRec struct {
	key  uint64
	peer *calibRec
}

var (
	calibSink uint64
	calibBuf  = make([]calibRec, calibRecs)
)

// calibrationKernel is the reference the simulator's speed is expressed in.
// It has two halves, because the simulator is two kinds of code. The first is
// eight independent multiply-add chains: arithmetic with enough
// instruction-level parallelism to be throughput-bound. The second fills and
// sorts a small slice of records through sort.Slice: calls through closures,
// data-dependent branches, loads and stores that stay in L1/L2. Neither
// touches main memory. Against the first half alone the p10 C-NN/Sh40 point
// had an IQR of 4.3 % of the median over 25 windows (20.7 % on the wall clock)
// and the p10 C-BLK/Baseline point 6.9 % with a 30 % range over 18; against
// both halves 5.2 % and 6.2 % with ranges of 10 % and 18 %. It returns its own
// wall seconds at the given scale (1 = full size, smaller for the tests).
func calibrationKernel(scale float64) float64 {
	t0 := time.Now()
	a, b, c, d, e, f, g, h := uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7), uint64(8)
	for i, n := 0, int(scale*calibChainRounds); i < n; i++ {
		a = a*3 + 1
		b = b*5 + 2
		c = c*7 + 3
		d = d*9 + 4
		e = e*11 + 5
		f = f*13 + 6
		g = g*15 + 7
		h = h*17 + 8
	}
	calibSink += a + b + c + d + e + f + g + h
	x := uint64(88172645463325252)
	rs := calibBuf
	for r, n := 0, max(int(scale*calibSortRounds), 1); r < n; r++ {
		for i := range rs {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			rs[i].key = x
			rs[i].peer = &rs[(i*7)%len(rs)]
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i].key < rs[j].key })
		calibSink += rs[0].peer.key
	}
	return time.Since(t0).Seconds()
}

// calibrator samples the kernel in the gaps between timed iterations, keeping
// the calibration to about calibShare of the elapsed time: one sample per gap
// on a short iteration, several on a long one, so that long iterations do not
// leave the host unsampled for seconds.
type calibrator struct {
	scale   float64 // kernel size per sample (1, less at smoke scale)
	start   time.Time
	spent   float64
	samples []float64
}

const calibShare = 0.12

func newCalibrator(scale float64) *calibrator { return &calibrator{scale: scale, start: time.Now()} }

// sample is called once per gap.
func (c *calibrator) sample() {
	for {
		s := calibrationKernel(c.scale)
		c.samples = append(c.samples, s)
		c.spent += s
		if c.spent >= calibShare*time.Since(c.start).Seconds() {
			return
		}
	}
}

// hostFactor is the p10 kernel time over the nominal: 1 on the defining host
// when quiet, above 1 on a slower (or busier) one. The p10 of the kernel and
// the p10 of the iterations both estimate the quietest moments of the same
// stretch of time, so their ratio is the program's cost in kernel units.
func (c *calibrator) hostFactor() float64 { return p10(c.samples) / (calibNominalSeconds * c.scale) }

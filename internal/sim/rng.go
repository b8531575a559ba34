package sim

import "math"

// RNG is a small deterministic xorshift64* generator. Workload generators use
// one RNG per (app, core, wavefront) so traces are reproducible and
// independent of issue interleaving. We avoid math/rand to keep seeding
// explicit and the stream stable across Go releases.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded from seed; a zero seed is remapped to a
// fixed nonzero constant because xorshift has an all-zero fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Zipf is a Zipf-like distribution over [0, n) with exponent s, with the
// per-(n, s) constants of the inverse CDF computed once: a workload generator
// draws millions of indices from two fixed distributions, and recomputing
// (n+1)^(1-s) with math.Pow on every draw was a visible share of a saturated
// run. The constants come from the same expressions a per-draw evaluation
// uses (zipfRef in the workload tests), so the draws are bit-identical.
//
// s = 0 degenerates to uniform; larger s concentrates probability on low
// indices. Implemented by inverse-CDF on a continuous approximation, which
// is accurate enough for locality modeling and needs no setup tables.
type Zipf struct {
	n    int
	s    float64
	np1  float64 // n + 1
	den  float64 // (n+1)^(1-s) - 1
	inva float64 // 1 / (1-s)
}

// NewZipf precomputes the distribution over [0, n) with exponent s.
func NewZipf(n int, s float64) Zipf {
	z := Zipf{n: n, s: s, np1: float64(n) + 1}
	if n > 1 && s > 0 && s != 1 {
		a := 1 - s
		z.den = pow(z.np1, a) - 1
		z.inva = 1 / a
	}
	return z
}

// Draw returns the next index from r's stream.
func (z *Zipf) Draw(r *RNG) int {
	if z.n <= 1 {
		return 0
	}
	if z.s <= 0 {
		return r.Intn(z.n)
	}
	u := r.Float64()
	if z.s == 1 {
		// CDF(x) ~ ln(1+x)/ln(1+n)
		x := pow(z.np1, u) - 1
		i := int(x)
		if i >= z.n {
			i = z.n - 1
		}
		return i
	}
	// CDF(x) ~ (1 - (1+x)^(1-s)) / (1 - (1+n)^(1-s))
	x := pow(u*z.den+1, z.inva) - 1
	i := int(x)
	if i < 0 {
		i = 0
	}
	if i >= z.n {
		i = z.n - 1
	}
	return i
}

func pow(base, exp float64) float64 { return math.Pow(base, exp) }

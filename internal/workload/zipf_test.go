package workload

import (
	"math"
	"testing"

	"dcl1sim/internal/sim"
)

// zipfRef is the old sim.RNG.Zipf, which recomputed the distribution's
// constants on every draw: the reference the precomputed sim.Zipf must
// reproduce bit for bit.
func zipfRef(r *sim.RNG, n int, s float64) int {
	if n <= 1 {
		return 0
	}
	if s <= 0 {
		return r.Intn(n)
	}
	u := r.Float64()
	if s == 1 {
		x := math.Pow(float64(n)+1, u) - 1
		i := int(x)
		if i >= n {
			i = n - 1
		}
		return i
	}
	a := 1 - s
	den := math.Pow(float64(n)+1, a) - 1
	x := math.Pow(u*den+1, 1/a) - 1
	i := int(x)
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// A million draws over every (SharedLines, SharedZipf) pair of the app table
// — the full region and the 80-core per-core slice — and over the s == 1,
// s <= 0 and n <= 1 branches: precomputed and per-draw forms agree on every
// index and leave the generator in the same state.
func TestZipfPrecomputedMatchesPerDraw(t *testing.T) {
	type dist struct {
		n int
		s float64
	}
	dists := []dist{{1000, 1}, {37, 1}, {500, 0}, {500, -0.5}, {1, 0.3}, {0, 0.3}, {2, 0.999}, {13000, 2.5}}
	for _, a := range Apps() {
		dists = append(dists, dist{a.SharedLines, a.SharedZipf}, dist{max(a.SharedLines/80, 1), a.SharedZipf})
	}
	per := 1_000_000/len(dists) + 1
	for _, d := range dists {
		ref, got := sim.NewRNG(uint64(d.n)+7), sim.NewRNG(uint64(d.n)+7)
		z := sim.NewZipf(d.n, d.s)
		for k := 0; k < per; k++ {
			want := zipfRef(ref, d.n, d.s)
			if v := z.Draw(got); v != want {
				t.Fatalf("Zipf(%d, %g) draw %d: precomputed %d, per-draw %d", d.n, d.s, k, v, want)
			}
		}
		if ref.Uint64() != got.Uint64() {
			t.Fatalf("Zipf(%d, %g): generators diverged after %d draws", d.n, d.s, per)
		}
	}
}

// Package analytic provides closed-form predictions of cache behaviour for
// the synthetic workloads, using Che's approximation for LRU caches. It
// serves two purposes: validating the cycle-level simulator (predicted vs
// simulated miss rates should track each other), and giving users a fast
// first-order screen of the design space before running simulations.
//
// Model: a cache of C lines serves a reference stream drawn from a fixed
// popularity distribution. Che's approximation says a line is resident iff
// it was referenced within a characteristic window of T requests, where T
// solves sum_i (1 - exp(-p_i*T)) = C. The hit rate is then
// sum_i p_i * (1 - exp(-p_i*T)).
//
// A workload's reference stream mixes its Zipf-skewed shared region with a
// per-wavefront streaming private region (modeled as uniform references over
// the aggregate private footprint).
package analytic

import (
	"math"

	"dcl1sim/internal/workload"
)

// Popularity builds the reference-probability vector of one cache's incoming
// stream: sharedWeight spread over S lines by the generator's Zipf form plus
// privateWeight spread uniformly over M streaming lines. Large populations
// are automatically bucketed to keep the vector manageable.
type Popularity struct {
	P []float64 // probability per (possibly bucketed) line group
	N []float64 // lines represented by each group
}

// zipfCDF mirrors sim.Zipf's continuous inverse-CDF form.
func zipfCDF(x float64, n int, s float64) float64 {
	if n <= 0 {
		return 1
	}
	if s <= 0 {
		return x / float64(n)
	}
	if s == 1 {
		return math.Log(1+x) / math.Log(float64(n)+1)
	}
	a := 1 - s
	return (math.Pow(1+x, a) - 1) / (math.Pow(float64(n)+1, a) - 1)
}

// buildPopularity constructs the mixed popularity for one cache.
func buildPopularity(sharedLines int, zipf, sharedW float64, privateLines int, privateW float64) Popularity {
	const buckets = 256
	var pop Popularity
	if sharedLines > 0 && sharedW > 0 {
		nb := buckets
		if sharedLines < nb {
			nb = sharedLines
		}
		prev := 0.0
		for b := 0; b < nb; b++ {
			hi := float64(sharedLines) * float64(b+1) / float64(nb)
			c := zipfCDF(hi, sharedLines, zipf)
			mass := (c - prev) * sharedW
			lines := float64(sharedLines) / float64(nb)
			prev = c
			if mass <= 0 || lines <= 0 {
				continue
			}
			pop.P = append(pop.P, mass/lines)
			pop.N = append(pop.N, lines)
		}
	}
	if privateLines > 0 && privateW > 0 {
		pop.P = append(pop.P, privateW/float64(privateLines))
		pop.N = append(pop.N, float64(privateLines))
	}
	return pop
}

// CharacteristicTime solves Che's fixed point: the window T (in requests)
// such that the expected number of distinct resident lines equals capacity.
func CharacteristicTime(pop Popularity, capacity int) float64 {
	total := 0.0
	for _, n := range pop.N {
		total += n
	}
	if total <= float64(capacity) {
		return math.Inf(1) // everything fits
	}
	lo, hi := 0.0, 1.0
	occ := func(t float64) float64 {
		s := 0.0
		for i, p := range pop.P {
			s += pop.N[i] * (1 - math.Exp(-p*t))
		}
		return s
	}
	for occ(hi) < float64(capacity) {
		hi *= 2
		if hi > 1e15 {
			break
		}
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if occ(mid) < float64(capacity) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// HitRate returns the stream hit rate under Che's approximation.
func HitRate(pop Popularity, capacity int) float64 {
	t := CharacteristicTime(pop, capacity)
	if math.IsInf(t, 1) {
		return sumMass(pop)
	}
	h := 0.0
	for i, p := range pop.P {
		h += pop.N[i] * p * (1 - math.Exp(-p*t))
	}
	return h
}

func sumMass(pop Popularity) float64 {
	m := 0.0
	for i, p := range pop.P {
		m += pop.N[i] * p
	}
	return m
}

// Prediction is the analytic estimate for one (app, design) pair.
type Prediction struct {
	MissRate         float64
	ReplicationRatio float64
}

// Machine describes the cache geometry the predictions are made for.
type Machine struct {
	Cores        int
	L1Lines      int // lines per private L1 (baseline)
	DCL1s        int // Y
	Clusters     int // Z (0/1 = fully shared)
	CapacityMult int // L1 capacity scale (16x study); 0 = 1
}

func (m Machine) withDefaults() Machine {
	if m.Cores <= 0 {
		m.Cores = 80
	}
	if m.L1Lines <= 0 {
		m.L1Lines = 256
	}
	if m.DCL1s <= 0 {
		m.DCL1s = 40
	}
	if m.Clusters <= 0 {
		m.Clusters = 1
	}
	if m.CapacityMult <= 0 {
		m.CapacityMult = 1
	}
	return m
}

// PredictBaseline estimates the private-L1 miss and replication ratios.
func PredictBaseline(app workload.Spec, m Machine) Prediction {
	m = m.withDefaults()
	waves := app.WavesFor(1)
	privFoot := waves * maxInt(app.PrivateLines, 1)
	pop := buildPopularity(app.SharedLines, app.SharedZipf, app.SharedFrac, privFoot, 1-app.SharedFrac)
	cap1 := m.L1Lines * m.CapacityMult
	hit := HitRate(pop, cap1)
	miss := 1 - hit
	// Replication ratio: a missed shared line is present in a peer cache
	// with probability 1-(1-q)^(K-1); approximate q by the occupancy share
	// of the shared region and weight by the shared share of misses.
	t := CharacteristicTime(pop, cap1)
	repl := 0.0
	if app.SharedLines > 0 && !math.IsInf(t, 1) {
		sharedMiss, q := 0.0, 0.0
		nb := 0.0
		for i, p := range pop.P {
			if i == len(pop.P)-1 && 1-app.SharedFrac > 0 && app.PrivateLines > 0 {
				break // last group is the private stream
			}
			res := 1 - math.Exp(-p*t)
			sharedMiss += pop.N[i] * p * (1 - res)
			q += pop.N[i] * res
			nb += pop.N[i]
		}
		if miss > 1e-9 && nb > 0 {
			avgRes := q / nb
			pPeer := 1 - math.Pow(1-avgRes, float64(m.Cores-1))
			repl = sharedMiss / miss * pPeer
		}
	}
	return Prediction{MissRate: clamp01(miss), ReplicationRatio: clamp01(repl)}
}

// PredictShared estimates the ShY / ShY+CZ miss rate: within a cluster the
// shared region is cached exactly once across the cluster's aggregated
// capacity, so the effective cache for the shared stream is the whole
// cluster while the private streams compete for the same space.
func PredictShared(app workload.Spec, m Machine) Prediction {
	m = m.withDefaults()
	coresPerCluster := m.Cores / m.Clusters
	clusterLines := m.Cores * m.L1Lines / m.Clusters * m.CapacityMult
	waves := app.WavesFor(1)
	privFoot := coresPerCluster * waves * maxInt(app.PrivateLines, 1)
	pop := buildPopularity(app.SharedLines, app.SharedZipf, app.SharedFrac, privFoot, 1-app.SharedFrac)
	hit := HitRate(pop, clusterLines)
	return Prediction{MissRate: clamp01(1 - hit)}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// PredictPrivate estimates the PrY miss rate: each aggregated node serves
// Cores/Y cores' combined streams with the summed capacity (replication
// persists across nodes, so the shared region is modeled per node).
func PredictPrivate(app workload.Spec, m Machine) Prediction {
	m = m.withDefaults()
	per := m.Cores / m.DCL1s
	if per < 1 {
		per = 1
	}
	nodeLines := m.Cores * m.L1Lines / m.DCL1s * m.CapacityMult
	waves := app.WavesFor(1)
	privFoot := per * waves * maxInt(app.PrivateLines, 1)
	pop := buildPopularity(app.SharedLines, app.SharedZipf, app.SharedFrac, privFoot, 1-app.SharedFrac)
	hit := HitRate(pop, nodeLines)
	return Prediction{MissRate: clamp01(1 - hit)}
}

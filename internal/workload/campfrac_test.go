package workload

import (
	"testing"

	"dcl1sim/internal/core"
)

func TestCampFracMixesStrides(t *testing.T) {
	s := Spec{
		Name: "halfcamp", Waves: 8,
		SharedLines: 500, SharedFrac: 1.0, SharedZipf: 0,
		CampStride: 40, CampFrac: 0.5, PrivateLines: 10,
	}
	p := s.Program(80, 0, 0, RoundRobin, 3)
	camped, uncamped := 0, 0
	for i := 0; i < 4000; i++ {
		op := p.Next()
		if op.Kind == core.OpCompute {
			continue
		}
		idx := op.Lines[0] - sharedRegionBase
		if idx%40 == 0 && idx >= 40 || idx == 0 {
			camped++ // multiples of 40 (the camped draws, plus idx 0 overlap)
		} else {
			uncamped++
		}
	}
	if camped == 0 || uncamped == 0 {
		t.Fatalf("CampFrac=0.5 must mix camped and dense draws: %d/%d", camped, uncamped)
	}
	frac := float64(camped) / float64(camped+uncamped)
	if frac < 0.35 || frac > 0.7 {
		t.Fatalf("camped fraction = %f, want ~0.5", frac)
	}
}

func TestCampFracDefaultsToFull(t *testing.T) {
	s := Spec{
		Name: "fullcamp", Waves: 8,
		SharedLines: 100, SharedFrac: 1.0, SharedZipf: 0,
		CampStride: 40, PrivateLines: 10,
	}
	p := s.Program(80, 0, 0, RoundRobin, 5)
	for i := 0; i < 1000; i++ {
		op := p.Next()
		if op.Kind == core.OpCompute {
			continue
		}
		if (op.Lines[0]-sharedRegionBase)%40 != 0 {
			t.Fatal("CampStride without CampFrac must stride every shared draw")
		}
	}
}

func TestPrivateStreamsAreStaggered(t *testing.T) {
	// The anti-convoy fix: different wavefronts must start their private
	// streams at different offsets, so concurrent first accesses spread
	// across L2 slices.
	s := Spec{Name: "stream", Waves: 8, PrivateLines: 1000, SharedLines: 0}
	residues := map[uint64]bool{}
	for w := 0; w < 16; w++ {
		p := s.Program(80, 0, w, RoundRobin, 1)
		for {
			op := p.Next()
			if op.Kind != core.OpCompute {
				residues[op.Lines[0]%32] = true
				break
			}
		}
	}
	if len(residues) < 8 {
		t.Fatalf("first accesses hit only %d of 32 L2 slices: convoy risk", len(residues))
	}
}

func TestClassString(t *testing.T) {
	if ReplicationSensitive.String() != "replication-sensitive" ||
		PoorPerforming.String() != "poor-performing" ||
		Insensitive.String() != "insensitive" ||
		Class(99).String() != "unknown" {
		t.Fatal("Class.String mismatch")
	}
}

func TestAtomicFraction(t *testing.T) {
	s := Spec{Name: "at", Waves: 4, PrivateLines: 50, AtomicFrac: 0.3}
	p := s.Program(8, 0, 0, RoundRobin, 2)
	atomics, total := 0, 0
	for i := 0; i < 3000; i++ {
		op := p.Next()
		if op.Kind == core.OpCompute {
			continue
		}
		total++
		if op.Kind == core.OpAtomic {
			atomics++
		}
	}
	frac := float64(atomics) / float64(total)
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("atomic fraction = %f, want ~0.3", frac)
	}
}

package core

import "math/bits"

// waveSet is a bitset over wavefront ids. The core keeps its derived
// scheduling state in these (wavefronts mid-expansion, wavefronts the issue
// stage may consider) so a stalled tick walks only the members, in id order,
// instead of every wavefront.
type waveSet []uint64

// grow makes room for ids [0, n).
func (s *waveSet) grow(n int) {
	for len(*s)*64 < n {
		*s = append(*s, 0)
	}
}

func (s waveSet) set(i int)      { s[i>>6] |= 1 << uint(i&63) }
func (s waveSet) clear(i int)    { s[i>>6] &^= 1 << uint(i&63) }
func (s waveSet) has(i int) bool { return s[i>>6]&(1<<uint(i&63)) != 0 }

// next returns the lowest member >= from, or -1. It reads the live set, so a
// walk `for i := s.next(0); i >= 0; i = s.next(i + 1)` observes members added
// or removed ahead of its position — the same view a linear scan testing each
// wavefront's flags in turn would have.
func (s waveSet) next(from int) int {
	wi := from >> 6
	if wi >= len(s) {
		return -1
	}
	w := s[wi] &^ (1<<uint(from&63) - 1)
	for w == 0 {
		wi++
		if wi == len(s) {
			return -1
		}
		w = s[wi]
	}
	return wi<<6 + bits.TrailingZeros64(w)
}

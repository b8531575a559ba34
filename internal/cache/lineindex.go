package cache

import "math/bits"

// lineIndex is the key array of the package's fixed-shape tables, the MSHR
// file and the replication directory. Both sit on the miss path, where a Go
// map costs a hash, a bucket walk and growth per lookup or insert. keys[i] is
// a line + 1 (0 = empty slot); the owner keeps slot i's payload in a parallel
// array and bounds the load so that one slot always stays empty.
type lineIndex struct {
	keys  []uint64
	shift uint // 64 - log2(len(keys)), for home
	n     int  // occupied slots
}

// newLineIndex returns an empty index of slots slots, a power of two.
func newLineIndex(slots int) lineIndex {
	return lineIndex{keys: make([]uint64, slots), shift: uint(bits.LeadingZeros64(uint64(slots - 1)))}
}

// home returns a line's preferred slot: multiplicative (Fibonacci) hashing
// keeps sequential lines — the common GPU stride pattern — from clustering
// into probe chains.
func (x *lineIndex) home(line uint64) int {
	return int((line * 0x9E3779B97F4A7C15) >> x.shift)
}

// find returns line's slot, or else the empty slot that ends its linear
// probe chain, where put may place it.
func (x *lineIndex) find(line uint64) (int, bool) {
	key, mask := line+1, len(x.keys)-1
	for i := x.home(line); ; i = (i + 1) & mask {
		switch x.keys[i] {
		case key:
			return i, true
		case 0:
			return i, false
		}
	}
}

// put places line in slot i, the empty slot find returned for it.
func (x *lineIndex) put(i int, line uint64) {
	x.keys[i] = line + 1
	x.n++
}

// vacate empties slot i by backward shift, so probe chains stay short and
// tombstone-free: each later slot of the chain whose home does not lie
// cyclically in (hole, slot] moves back into the hole, and move copies its
// payload along. It returns the slot left empty, whose payload the owner
// clears. Payload pointers taken before a vacate are stale after it.
func (x *lineIndex) vacate(i int, move func(dst, src int)) int {
	mask := len(x.keys) - 1
	x.n--
	for j := i; ; {
		x.keys[i] = 0
		for {
			j = (j + 1) & mask
			if x.keys[j] == 0 {
				return i
			}
			k := x.home(x.keys[j] - 1)
			if i <= j {
				if k <= i || k > j {
					break
				}
			} else if k <= i && k > j {
				break
			}
		}
		x.keys[i] = x.keys[j]
		move(i, j)
		i = j
	}
}

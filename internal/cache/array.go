// Package cache implements the set-associative cache model used for the
// baseline L1s, the DC-L1 caches, and the L2 slices: an LRU tag array, an
// MSHR file with request merging, and a cycle-driven controller supporting
// the paper's policies (write-evict + no-write-allocate for L1/DC-L1,
// write-back + write-allocate for L2) plus the study knobs (perfect cache,
// scaled capacity).
package cache

// Array is a set-associative LRU tag array addressed by cache-line number.
// It holds no data: the simulator is a performance model, so only presence,
// dirtiness, and recency matter.
//
// The set index is a hash of the line number rather than a modulo. GPUs hash
// their cache indices for exactly the reasons this simulator needs it: with
// modulo indexing, the DC-L1 home selection (line mod Y), the L2 slice
// interleaving (line mod 32), and constant-stride access patterns all alias
// with the set-index bits and collapse the cache onto a fraction of its sets.
type Array struct {
	sets int
	ways int
	tick int64
	meta []way // sets*ways entries, set-major
	// gen advances whenever the set of resident lines may have changed
	// (Install, Invalidate): a "line absent" verdict taken at one gen holds
	// for as long as gen does.
	gen uint64
}

type way struct {
	line  uint64
	valid bool
	dirty bool
	used  int64 // LRU timestamp
}

// NewArray builds a tag array with the given geometry. Both arguments must be
// positive; sets does not need to be a power of two (the paper's 40-node
// organizations index by mod).
func NewArray(sets, ways int) *Array {
	if sets <= 0 || ways <= 0 {
		panic("cache: NewArray requires positive sets and ways")
	}
	return &Array{sets: sets, ways: ways, meta: make([]way, sets*ways)}
}

// mix64 is the SplitMix64 finalizer: a fast, well-distributed 64-bit hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Sets returns the number of sets.
func (a *Array) Sets() int { return a.sets }

// Ways returns the associativity.
func (a *Array) Ways() int { return a.ways }

// LinesCapacity returns the total number of lines the array can hold.
func (a *Array) LinesCapacity() int { return a.sets * a.ways }

func (a *Array) index(line uint64) (set int) {
	return int(mix64(line) % uint64(a.sets))
}

func (a *Array) slot(set, w int) *way { return &a.meta[set*a.ways+w] }

// Lookup reports whether line is present; when touch is true a hit also
// refreshes its LRU position.
func (a *Array) Lookup(line uint64, touch bool) bool {
	set := a.index(line)
	for w := 0; w < a.ways; w++ {
		s := a.slot(set, w)
		if s.valid && s.line == line {
			if touch {
				a.tick++
				s.used = a.tick
			}
			return true
		}
	}
	return false
}

// Contains is Lookup without the LRU side effect.
func (a *Array) Contains(line uint64) bool { return a.Lookup(line, false) }

// Install places line in its set, evicting the LRU victim if the set is
// full. It returns the victim line and whether it was dirty. Installing a
// line already present refreshes it instead (no eviction).
func (a *Array) Install(line uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	set := a.index(line)
	a.tick++
	a.gen++
	var lru *way
	for w := 0; w < a.ways; w++ {
		s := a.slot(set, w)
		if s.valid && s.line == line {
			s.used = a.tick
			if dirty {
				s.dirty = true
			}
			return 0, false, false
		}
		if !s.valid {
			if lru == nil || lru.valid {
				lru = s
			}
			continue
		}
		if lru == nil || (lru.valid && s.used < lru.used) {
			lru = s
		}
	}
	if lru.valid {
		victim = lru.line
		victimDirty = lru.dirty
		evicted = true
	}
	lru.line = line
	lru.valid = true
	lru.dirty = dirty
	lru.used = a.tick
	return victim, victimDirty, evicted
}

// MarkDirty sets the dirty bit of a resident line, reporting whether the
// line was present.
func (a *Array) MarkDirty(line uint64) bool {
	set := a.index(line)
	for w := 0; w < a.ways; w++ {
		s := a.slot(set, w)
		if s.valid && s.line == line {
			s.dirty = true
			return true
		}
	}
	return false
}

// Invalidate drops a line if present, returning whether it was present and
// whether it was dirty (the write-evict policy forwards the line downward).
func (a *Array) Invalidate(line uint64) (present, dirty bool) {
	set := a.index(line)
	for w := 0; w < a.ways; w++ {
		s := a.slot(set, w)
		if s.valid && s.line == line {
			s.valid = false
			a.gen++
			return true, s.dirty
		}
	}
	return false, false
}

// CountValid returns the number of resident lines (test/debug aid).
func (a *Array) CountValid() int {
	n := 0
	for i := range a.meta {
		if a.meta[i].valid {
			n++
		}
	}
	return n
}

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
	// The ways, as parallel slices of sets*ways entries, set-major: tags[i]
	// is the resident line + 1 (0 = invalid), used[i] its LRU timestamp,
	// dirty[i] its dirty bit. A lookup scans only a set's tags.
	tags  []uint64
	used  []int64
	dirty []bool
	// gen advances whenever the set of resident lines may have changed
	// (Install, Invalidate): a "line absent" verdict taken at one gen holds
	// for as long as gen does.
	gen uint64
}

// NewArray builds a tag array with the given geometry. Both arguments must be
// positive; sets does not need to be a power of two (the paper's 40-node
// organizations index by mod).
func NewArray(sets, ways int) *Array {
	if sets <= 0 || ways <= 0 {
		panic("cache: NewArray requires positive sets and ways")
	}
	n := sets * ways
	return &Array{sets: sets, ways: ways, tags: make([]uint64, n), used: make([]int64, n), dirty: make([]bool, n)}
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

// find returns the index of line's way, or -1 when it is not resident.
func (a *Array) find(line uint64) int {
	base := a.index(line) * a.ways
	for w, t := range a.tags[base : base+a.ways] {
		if t == line+1 {
			return base + w
		}
	}
	return -1
}

// Lookup reports whether line is present; when touch is true a hit also
// refreshes its LRU position.
func (a *Array) Lookup(line uint64, touch bool) bool {
	i := a.find(line)
	if i >= 0 && touch {
		a.tick++
		a.used[i] = a.tick
	}
	return i >= 0
}

// Contains is Lookup without the LRU side effect.
func (a *Array) Contains(line uint64) bool { return a.find(line) >= 0 }

// Install places line in its set, evicting the LRU victim if the set is
// full: the first invalid way, otherwise the least recently used, the first
// of them on a tie. It returns the victim line and whether it was dirty.
// Installing a line already present refreshes it instead (no eviction).
func (a *Array) Install(line uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	base := a.index(line) * a.ways
	a.tick++
	a.gen++
	lru := -1
	for w, t := range a.tags[base : base+a.ways] {
		i := base + w
		switch {
		case t == line+1:
			a.used[i] = a.tick
			if dirty {
				a.dirty[i] = true
			}
			return 0, false, false
		case t == 0:
			if lru < 0 || a.tags[lru] != 0 {
				lru = i
			}
		case lru < 0 || a.tags[lru] != 0 && a.used[i] < a.used[lru]:
			lru = i
		}
	}
	if t := a.tags[lru]; t != 0 {
		victim, victimDirty, evicted = t-1, a.dirty[lru], true
	}
	a.tags[lru], a.dirty[lru], a.used[lru] = line+1, dirty, a.tick
	return victim, victimDirty, evicted
}

// MarkDirty sets the dirty bit of a resident line, reporting whether the
// line was present.
func (a *Array) MarkDirty(line uint64) bool {
	i := a.find(line)
	if i >= 0 {
		a.dirty[i] = true
	}
	return i >= 0
}

// Invalidate drops a line if present, returning whether it was present and
// whether it was dirty (the write-evict policy forwards the line downward).
func (a *Array) Invalidate(line uint64) (present, dirty bool) {
	i := a.find(line)
	if i < 0 {
		return false, false
	}
	a.tags[i] = 0
	a.gen++
	return true, a.dirty[i]
}

// ForEach calls fn with every resident line, in way order (test/debug aid).
func (a *Array) ForEach(fn func(line uint64)) {
	for _, t := range a.tags {
		if t != 0 {
			fn(t - 1)
		}
	}
}

// CountValid returns the number of resident lines (test/debug aid).
func (a *Array) CountValid() int {
	n := 0
	for _, t := range a.tags {
		if t != 0 {
			n++
		}
	}
	return n
}

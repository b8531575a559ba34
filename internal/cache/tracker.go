package cache

import "math/bits"

// Presence is the replication directory: per line, the set of caches holding
// it. The replication ratio (Fig 1) is the fraction of L1 misses whose line
// is resident in some *other* L1 at miss time; Figs 11 and 16 count a line's
// L1 copies, sampled at each install.
//
// Like the MSHR file it is a fixed-shape table on a lineIndex. Slot i's
// sharers are the bitmap sharers[i*words:(i+1)*words] over cache ids, as wide
// as the highest id that joined (every Ctrl joins at New) or installed. A
// line holds its slot exactly while its bitmap is non-empty, so the replica
// count is a popcount and every empty slot's bitmap is zero.
//
// A nil *Presence is valid and means "replication not measured": installs
// and evictions are dropped and no line is ever present elsewhere.
type Presence struct {
	lineIndex
	sharers []uint64
	words   int // bitmap words per slot: ⌈caches/64⌉
	limit   int // keys at which the table doubles: a load of 5/8
	// size is the slot count the first install allocates. Until then the
	// table is one empty slot with no room, so it is allocated once, at its
	// final width, after every cache has joined.
	size int

	staged bool // OnInstall and OnEvict append to log (Staged)
	log    []presenceOp

	// SampledReplicaSum / SampledReplicaCount accumulate the replica count
	// observed at each install, giving the "replicas per cached line" average
	// the paper reports (7.7 baseline, 5.7 Pr40, 2.8 C10, 0 Sh40 — counting
	// copies beyond the first is done by the caller).
	SampledReplicaSum   int64
	SampledReplicaCount int64
}

type presenceOp struct {
	line  uint64
	cache int32
	evict bool
}

// NewPresence returns an empty tracker sized for caches holding lines lines
// in all — the most keys it can ever carry at once — at a load of at most
// 5/8. It grows by doubling only if more distinct lines than that arrive.
func NewPresence(lines int) *Presence {
	size := 8
	for size*5 < lines*8 {
		size *= 2
	}
	p := &Presence{size: size}
	p.resize(1, 1)
	return p
}

// Staged makes the tracker two-phase and returns the function that publishes
// a phase. From then on OnInstall and OnEvict append to one log, and reads
// see the directory as of the last publish. The gpu layer publishes at the
// core clock's edge barrier, so no L1 sees another's install or eviction
// earlier in an edge than the rest do, whichever of them have ticked.
func (p *Presence) Staged() (apply func()) {
	p.staged = true
	return p.apply
}

func (p *Presence) apply() {
	for _, op := range p.log {
		p.do(op)
	}
	p.log = p.log[:0]
}

// OnInstall records that cacheID now holds line.
func (p *Presence) OnInstall(cacheID int, line uint64) {
	p.record(presenceOp{line: line, cache: int32(cacheID)})
}

// OnEvict records that cacheID no longer holds line.
func (p *Presence) OnEvict(cacheID int, line uint64) {
	p.record(presenceOp{line: line, cache: int32(cacheID), evict: true})
}

func (p *Presence) record(op presenceOp) {
	switch {
	case p == nil:
	case p.staged:
		p.log = append(p.log, op)
	default:
		p.do(op)
	}
}

// do applies one install or eviction.
func (p *Presence) do(op presenceOp) {
	id, w := int(op.cache), int(op.cache>>6)
	p.join(id)
	i, ok := p.find(op.line)
	switch {
	case op.evict && ok:
		s := p.bitmap(i)
		s[w] &^= 1 << (id & 63)
		if popcount(s) == 0 {
			clear(p.bitmap(p.vacate(i, func(dst, src int) { copy(p.bitmap(dst), p.bitmap(src)) })))
		}
	case !op.evict:
		if !ok {
			if p.n == p.limit {
				p.resize(max(2*len(p.keys), p.size), p.words)
				i, _ = p.find(op.line)
			}
			p.put(i, op.line)
		}
		s := p.bitmap(i)
		s[w] |= 1 << (id & 63)
		p.SampledReplicaSum += int64(popcount(s))
		p.SampledReplicaCount++
	}
}

// join widens the bitmaps to hold cacheID. Every Ctrl joins at New, before
// any line is installed, so a machine's table is allocated once at its final
// width; an install by a cache that never joined widens them then.
func (p *Presence) join(cacheID int) {
	if p != nil && cacheID>>6 >= p.words {
		p.resize(len(p.keys), cacheID>>6+1)
	}
}

// PresentElsewhere reports whether line is resident in any cache other than
// cacheID.
func (p *Presence) PresentElsewhere(cacheID int, line uint64) bool {
	if p == nil {
		return false
	}
	i, _ := p.find(line) // an absent line's empty slot has no sharers
	return popcount(p.bitmap(i)) > p.bit(i, cacheID)
}

// Holds reports whether line is recorded as resident in cacheID (audits and
// tests).
func (p *Presence) Holds(cacheID int, line uint64) bool {
	i, _ := p.find(line)
	return p.bit(i, cacheID) == 1
}

// Replicas returns the number of caches currently holding line.
func (p *Presence) Replicas(line uint64) int {
	i, _ := p.find(line)
	return popcount(p.bitmap(i))
}

// MeanReplicas returns the average number of caches holding a line, sampled
// at install time. Returns 0 when nothing was installed.
func (p *Presence) MeanReplicas() float64 {
	if p.SampledReplicaCount == 0 {
		return 0
	}
	return float64(p.SampledReplicaSum) / float64(p.SampledReplicaCount)
}

// Copies returns the number of copies recorded over all lines: the
// directory's set sharer bits (the post-run audit counts them).
func (p *Presence) Copies() int { return popcount(p.sharers) }

// Distinct returns the number of lines currently resident somewhere.
func (p *Presence) Distinct() int { return p.n }

// Slots returns the table's slot count: its build size until more distinct
// lines arrive than it was sized for.
func (p *Presence) Slots() int { return max(len(p.keys), p.size) }

func (p *Presence) bitmap(i int) []uint64 {
	return p.sharers[i*p.words : (i+1)*p.words]
}

// bit returns cacheID's bit in slot i's bitmap; cacheID has joined or
// installed.
func (p *Presence) bit(i, cacheID int) int {
	return int(p.bitmap(i)[cacheID>>6] >> (cacheID & 63) & 1)
}

// resize rebuilds the table with slots slots (a power of two) and words
// bitmap words per slot, rehashing every line.
func (p *Presence) resize(slots, words int) {
	keys, sharers, old := p.keys, p.sharers, p.words
	p.lineIndex = newLineIndex(slots)
	p.sharers = make([]uint64, slots*words)
	p.words = words
	p.limit = slots * 5 / 8
	for i, k := range keys {
		if k != 0 {
			j, _ := p.find(k - 1)
			p.put(j, k-1)
			copy(p.bitmap(j), sharers[i*old:(i+1)*old])
		}
	}
}

func popcount(s []uint64) int {
	n := 0
	for _, x := range s {
		n += bits.OnesCount64(x)
	}
	return n
}

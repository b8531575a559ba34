package cache

// Tracker observes line installs/evictions across a group of caches so the
// simulator can measure cache-line replication: the paper's replication ratio
// (Fig 1) is the fraction of L1 misses whose line is resident in some *other*
// L1 at miss time, and Fig 16's replica counts are the number of L1 copies of
// a line.
type Tracker interface {
	OnInstall(cacheID int, line uint64)
	OnEvict(cacheID int, line uint64)
	// PresentElsewhere reports whether line is resident in any cache other
	// than cacheID.
	PresentElsewhere(cacheID int, line uint64) bool
	// Replicas returns the number of caches currently holding line.
	Replicas(line uint64) int
}

// NopTracker ignores all events (used for L2 and for caches where
// replication is not measured).
type NopTracker struct{}

// OnInstall implements Tracker.
func (NopTracker) OnInstall(int, uint64) {}

// OnEvict implements Tracker.
func (NopTracker) OnEvict(int, uint64) {}

// PresentElsewhere implements Tracker.
func (NopTracker) PresentElsewhere(int, uint64) bool { return false }

// Replicas implements Tracker.
func (NopTracker) Replicas(uint64) int { return 0 }

// Presence tracks, per line, the set of caches holding it (bitmap over up to
// 128 caches — enough for the 120-core sensitivity study). It also keeps a
// running tally of replicated installs so average replicas/line can be
// reported cheaply.
type Presence struct {
	byLine map[uint64]presenceEntry

	// SampledReplicaSum / SampledReplicaCount accumulate the replica count
	// observed at each install, giving the "replicas per cached line" average
	// the paper reports (7.7 baseline, 5.7 Pr40, 2.8 C10, 0 Sh40 — counting
	// copies beyond the first is done by the caller).
	SampledReplicaSum   int64
	SampledReplicaCount int64
}

type presenceEntry struct {
	bits [2]uint64
	n    int16
}

// NewPresence returns an empty tracker sized for caches holding lines lines
// in all (the most entries the map can ever carry at once). The hint is
// capped: an 80-core machine's L1s hold more lines than a run keeps distinct.
func NewPresence(lines int) *Presence {
	return &Presence{byLine: make(map[uint64]presenceEntry, min(lines, 1<<16))}
}

// OnInstall implements Tracker.
func (p *Presence) OnInstall(cacheID int, line uint64) {
	e := p.byLine[line]
	w, b := cacheID/64, uint(cacheID%64)
	if e.bits[w]&(1<<b) == 0 {
		e.bits[w] |= 1 << b
		e.n++
	}
	p.byLine[line] = e
	p.SampledReplicaSum += int64(e.n)
	p.SampledReplicaCount++
}

// OnEvict implements Tracker.
func (p *Presence) OnEvict(cacheID int, line uint64) {
	e, ok := p.byLine[line]
	if !ok {
		return
	}
	w, b := cacheID/64, uint(cacheID%64)
	if e.bits[w]&(1<<b) != 0 {
		e.bits[w] &^= 1 << b
		e.n--
	}
	if e.n <= 0 {
		delete(p.byLine, line)
		return
	}
	p.byLine[line] = e
}

// PresentElsewhere implements Tracker.
func (p *Presence) PresentElsewhere(cacheID int, line uint64) bool {
	e, ok := p.byLine[line]
	if !ok {
		return false
	}
	w, b := cacheID/64, uint(cacheID%64)
	if e.bits[w]&(1<<b) != 0 {
		return e.n > 1
	}
	return e.n > 0
}

// Replicas implements Tracker.
func (p *Presence) Replicas(line uint64) int {
	return int(p.byLine[line].n)
}

// MeanReplicas returns the average number of caches holding a line, sampled
// at install time. Returns 0 when nothing was installed.
func (p *Presence) MeanReplicas() float64 {
	if p.SampledReplicaCount == 0 {
		return 0
	}
	return float64(p.SampledReplicaSum) / float64(p.SampledReplicaCount)
}

// Distinct returns the number of lines currently resident somewhere.
func (p *Presence) Distinct() int { return len(p.byLine) }

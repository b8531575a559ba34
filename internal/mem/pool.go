package mem

// Pool recycles Access and Packet values so a saturated steady-state cycle
// performs no heap allocation: components Get a value where they previously
// allocated one and the owner Puts it back where the value used to become
// garbage (the reply sink for packets, the core's retire stage and the
// orphan-ACK drop points for accesses). Free lists grow to the peak number of
// simultaneously in-flight values and are reused for the rest of the run.
//
// A nil *Pool is valid and means "no pooling": Get* allocate fresh values and
// Put* drop their argument. The gpu package builds every System with a pool by
// default and disables it only for the pooled-vs-unpooled equivalence tests,
// which must see bit-identical results either way. Pooling cannot change
// simulated behaviour because GetAccess/GetPacket return zeroed values —
// indistinguishable from &Access{} / &Packet{} — and because no component
// compares pointer identity (see DESIGN.md §10 for the ownership contract).
//
// A Pool belongs to one System and is touched only by the goroutine running
// it: plain slice free lists, plain counter increments. Double-Put detection
// is compiled in with the "pooldebug" build tag (see pool_guard_on.go) and
// costs nothing otherwise.
type Pool struct {
	acc []*Access
	pkt []*Packet

	// Cumulative counters, for tests and allocation-discipline audits:
	// Gets = total Get calls, News = Gets that had to allocate (free list
	// empty), Puts = values returned. In a leak-free steady state News stops
	// growing while Gets/Puts keep advancing.
	AccGets, AccNews, AccPuts uint64
	PktGets, PktNews, PktPuts uint64

	guard putGuard
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	p := &Pool{}
	p.guard.init()
	return p
}

// GetAccess returns a zeroed Access, reusing a retired one when available.
func (p *Pool) GetAccess() *Access {
	if p == nil {
		return &Access{}
	}
	p.AccGets++
	if n := len(p.acc); n > 0 {
		a := p.acc[n-1]
		p.acc[n-1] = nil
		p.acc = p.acc[:n-1]
		p.guard.getAccess(a)
		*a = Access{}
		return a
	}
	p.AccNews++
	return &Access{}
}

// PutAccess retires a for reuse. Callers must not touch a afterwards. A nil
// pool (or a nil a) makes this a no-op, so retirement points need no guards.
func (p *Pool) PutAccess(a *Access) {
	if p == nil || a == nil {
		return
	}
	p.guard.putAccess(a)
	p.AccPuts++
	p.acc = append(p.acc, a)
}

// GetPacket returns a zeroed Packet, reusing a retired one when available.
func (p *Pool) GetPacket() *Packet {
	if p == nil {
		return &Packet{}
	}
	p.PktGets++
	if n := len(p.pkt); n > 0 {
		k := p.pkt[n-1]
		p.pkt[n-1] = nil
		p.pkt = p.pkt[:n-1]
		p.guard.getPacket(k)
		*k = Packet{}
		return k
	}
	p.PktNews++
	return &Packet{}
}

// PutPacket retires k for reuse. The wrapped Access is NOT retired — packet
// and access have independent lifetimes (the access usually travels on after
// the packet is consumed at a sink).
func (p *Pool) PutPacket(k *Packet) {
	if p == nil || k == nil {
		return
	}
	p.guard.putPacket(k)
	k.Acc = nil // drop the reference; the access is owned elsewhere
	p.PktPuts++
	p.pkt = append(p.pkt, k)
}

// Live returns the number of values handed out and not yet returned
// (allocation-balance audits; negative only if Put outpaced Get, a bug).
func (p *Pool) Live() (accesses, packets int64) {
	if p == nil {
		return 0, 0
	}
	return int64(p.AccGets) - int64(p.AccPuts), int64(p.PktGets) - int64(p.PktPuts)
}

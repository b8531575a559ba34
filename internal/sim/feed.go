package sim

import "math/bits"

// Feed moves values from source ports through Try, at most Rate from each
// source per run, visiting the sources in order: the glue between one
// component's output port and another's input (or a network's injection).
// It is not a component. The model component it feeds — its host — runs it
// at the end of its own Tick (Feeds.Run), answers for it in NextWorkCycle
// (Feeds.Busy) and names its ports in WakeSources (Feeds.WakeSources). The
// host must tick on the clock every port Try pushes into is attached to:
// a push is staged until that clock's barrier, so where in the edge the feed
// runs is as unobservable as where a component of its own would have ticked
// (DESIGN.md §11).
//
// A run that leaves every non-empty source on a refusal is trusted when
// something will say the refusal may have lifted. A port of Space relents at
// a barrier (its producer, the feed, was refused and it accepts again): the
// feed leaves its host's live set (Feeds) until that relent or a commit into
// one of its sources puts it back, and the barrier wakes the host, which
// names that space. A network returning an injection credit marks nothing,
// but it is always the feed's own host and stays awake while it holds the
// packets that took the credits: a feed counting Credits stays live and
// skips its runs while the count and the set of non-empty sources stand
// where the refusal left them. A feed naming neither, or a Space port in
// immediate mode, never trusts a refusal.
type Feed[T any] struct {
	Srcs []*Port[T]
	Rate int
	Try  func(v T) bool
	// Prep, when set, runs before every Try with the index of the source v
	// heads (a fan-in that treats its sources differently).
	Prep func(src int, v T)
	// Space names the ports Try pushes into; Credits counts the injection
	// credits returned by the network Try injects into. A feed names one of
	// the two, or neither.
	Space   []PortRef
	Credits func() int64

	blocked bool  // the last run ended on a trusted refusal
	full    int   // Credits: non-empty sources at the refusal
	mark    int64 // Credits: the count at the refusal
}

// trusts reports whether something will tell the feed that a refusal may
// have lifted.
func (f *Feed[T]) trusts() bool {
	for _, r := range f.Space {
		if r.h.clk == nil {
			return false
		}
	}
	return len(f.Space) > 0 || f.Credits != nil
}

// nonEmpty counts the sources holding a value.
func (f *Feed[T]) nonEmpty() int {
	n := 0
	for _, q := range f.Srcs {
		if !q.Empty() {
			n++
		}
	}
	return n
}

// stands reports whether the last run's refusal for want of a credit still
// holds: no credit has come back and no empty source has filled.
func (f *Feed[T]) stands() bool {
	return f.blocked && f.Credits != nil && f.Credits() == f.mark && f.nonEmpty() == f.full
}

// Run moves what it can, unless a refusal for want of a credit stands.
func (f *Feed[T]) Run() {
	if f.stands() {
		return
	}
	// left counts the sources a refusal left non-empty, or is -1 once one
	// stopped at the rate with more to move.
	left := 0
	for si, q := range f.Srcs {
		moved := 0
		for ; moved < f.Rate; moved++ {
			v, ok := q.Peek()
			if !ok {
				break
			}
			if f.Prep != nil {
				f.Prep(si, v)
			}
			if !f.Try(v) {
				break
			}
			q.Pop()
		}
		switch {
		case q.Empty() || left < 0:
		case moved == f.Rate:
			left = -1
		default:
			left++
		}
	}
	f.blocked = left > 0 && f.trusts()
	if f.blocked && f.Credits != nil {
		f.mark, f.full = f.Credits(), f.nonEmpty()
	}
}

// Busy reports whether a run would try to move something.
func (f *Feed[T]) Busy() bool {
	for _, q := range f.Srcs {
		if !q.Empty() {
			return !f.stands()
		}
	}
	return false
}

// quiet reports, after a run, that only a port's notification can give the
// feed work again: every source is attached (a commit into it marks the feed
// live) and either empty or behind a refusal only a Space port's relent
// (which marks it too) can lift.
func (f *Feed[T]) quiet() bool {
	if f.blocked && f.Credits != nil {
		return false // a returned credit marks nothing: keep asking
	}
	for _, q := range f.Srcs {
		if q.hdr.clk == nil || !q.Empty() && !f.blocked {
			return false
		}
	}
	return true
}

// feedSet is the part of Feeds a port notifies: which feeds may have work.
type feedSet struct {
	live []uint64
}

func (s *feedSet) mark(i int32) { s.live[i>>6] |= 1 << uint(i&63) }

// Feeds are the feeds one component hosts, run in the order added. Only the
// live ones are visited: a feed leaves the live set when a run leaves it
// quiet, and a commit into one of its sources or a relent of one of its
// Space ports puts it back, so a host tick costs what its feeds have to do,
// not how many it hosts.
type Feeds[T any] struct {
	list []*Feed[T]
	feedSet
}

// Add hosts f, live until its first run says otherwise. A port sources at
// most one feed and is the Space of at most one (it has one consumer and one
// producer).
func (fs *Feeds[T]) Add(f *Feed[T]) {
	if len(f.Space) > 0 && f.Credits != nil {
		panic("sim: a feed names Space or Credits, not both")
	}
	i := int32(len(fs.list))
	fs.list = append(fs.list, f)
	if int(i)>>6 == len(fs.live) {
		fs.live = append(fs.live, 0)
	}
	fs.mark(i)
	for _, q := range f.Srcs {
		q.hdr.dnote, q.hdr.didx = &fs.feedSet, i
	}
	for _, r := range f.Space {
		r.h.snote, r.h.sidx = &fs.feedSet, i
	}
}

// Run runs every live feed; the host calls it last in its Tick.
func (fs *Feeds[T]) Run() {
	for wi := range fs.live {
		for w := fs.live[wi]; w != 0; w &= w - 1 {
			b := uint(bits.TrailingZeros64(w))
			f := fs.list[wi<<6+int(b)]
			f.Run()
			if f.quiet() {
				fs.live[wi] &^= 1 << b
			}
		}
	}
}

// Busy reports whether any feed would try to move something: the host has
// work this cycle.
func (fs *Feeds[T]) Busy() bool {
	for wi, w := range fs.live {
		for ; w != 0; w &= w - 1 {
			if fs.list[wi<<6+bits.TrailingZeros64(w)].Busy() {
				return true
			}
		}
	}
	return false
}

// WakeSources names the feeds' sources and space, for the host's
// WakeSources.
func (fs *Feeds[T]) WakeSources() []PortRef {
	var refs []PortRef
	for _, f := range fs.list {
		for _, q := range f.Srcs {
			refs = append(refs, q.Ref())
		}
		refs = append(refs, f.Space...)
	}
	return refs
}

package sim

// DelayQueue releases items at or after a chosen cycle. It models fixed or
// variable pipeline latencies (cache hit latency, DRAM data return, router
// traversal). Items that become ready on the same cycle are released in
// insertion order, keeping the simulation deterministic.
//
// The items sit in a power-of-two ring sorted by release cycle, and a push
// inserts from the tail: every fixed-latency pipe produces monotone release
// cycles, so the new item lands behind the last one in O(1), and a variable
// latency only shifts the few younger items it overtakes. Stopping at the
// first item that is not later than the new one keeps equal release cycles
// in insertion order — the (readyAt, insertion) order a heap with a sequence
// number gives, without the sequence number or the sifts.
//
// Unlike Queue it has no capacity and its ring grows on demand: it holds
// what is in flight in a pipe, and every pipe sits behind a bounded port or
// a network credit, so what can be in flight is bounded upstream.
type DelayQueue[T any] struct {
	buf  []delayItem[T]
	head int
	size int
}

type delayItem[T any] struct {
	readyAt Cycle
	v       T
}

// NewDelayQueue returns an empty delay queue.
func NewDelayQueue[T any]() *DelayQueue[T] { return &DelayQueue[T]{} }

// Len returns the number of in-flight items.
func (d *DelayQueue[T]) Len() int { return d.size }

// Push schedules v to become ready at cycle readyAt.
func (d *DelayQueue[T]) Push(v T, readyAt Cycle) {
	if d.size == len(d.buf) {
		d.grow()
	}
	mask := len(d.buf) - 1
	i := d.size
	for ; i > 0; i-- {
		prev := &d.buf[(d.head+i-1)&mask]
		if prev.readyAt <= readyAt {
			break
		}
		d.buf[(d.head+i)&mask] = *prev
	}
	d.buf[(d.head+i)&mask] = delayItem[T]{readyAt: readyAt, v: v}
	d.size++
}

func (d *DelayQueue[T]) grow() {
	n := 2 * len(d.buf)
	if n == 0 {
		n = 8
	}
	nb := make([]delayItem[T], n)
	for i := 0; i < d.size; i++ {
		nb[i] = d.buf[(d.head+i)&(len(d.buf)-1)]
	}
	d.buf = nb
	d.head = 0
}

// PeekReady reports whether an item is ready at cycle now, without removing it.
func (d *DelayQueue[T]) PeekReady(now Cycle) (v T, ok bool) {
	if d.size == 0 || d.buf[d.head].readyAt > now {
		return v, false
	}
	return d.buf[d.head].v, true
}

// PopReady removes and returns the next item whose release cycle is <= now.
func (d *DelayQueue[T]) PopReady(now Cycle) (v T, ok bool) {
	if d.size == 0 || d.buf[d.head].readyAt > now {
		return v, false
	}
	v = d.buf[d.head].v
	d.buf[d.head] = delayItem[T]{} // release the value for GC
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.size--
	return v, true
}

// NextReadyAt returns the release cycle of the earliest item, or ok=false if
// the queue is empty.
func (d *DelayQueue[T]) NextReadyAt() (c Cycle, ok bool) {
	if d.size == 0 {
		return 0, false
	}
	return d.buf[d.head].readyAt, true
}

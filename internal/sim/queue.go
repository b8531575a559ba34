package sim

import "math/bits"

// Queue is a bounded FIFO with backpressure, the basic plumbing between
// pipeline stages. A capacity of 0 means unbounded (used only by statistics
// sinks). The zero value is not usable; construct with NewQueue.
//
// Unbounded queues are a footgun under saturation: a sink that stops
// draining grows its buffer forever. Two mitigations apply: the retained
// buffer shrinks again once occupancy drops (maybeShrink), so a transient
// burst does not pin memory for the rest of a sweep, and the health layer
// flags sustained occupancy above UnboundedSoftCap (see CheckQueue) so a
// non-draining sink surfaces as a warning instead of silent memory growth.
// Bounded queues never grow: their buffer is preallocated at capacity.
//
// The buffer is a power-of-two ring, so every push, pop and indexed read
// wraps with a mask instead of a division; a bounded queue's ring is its
// capacity rounded up, and Full still answers against the capacity itself.
type Queue[T any] struct {
	buf  []T
	head int
	size int
	cap  int

	// watch, set on the committed queue of an attached Port, is told of every
	// removal: the producer's clock has to refresh its occupancy snapshot of
	// this queue at its next barrier.
	watch *portHeader

	// PushCount / PopCount give cumulative traffic through the queue and are
	// used for occupancy and utilization statistics.
	PushCount int64
	PopCount  int64
}

// NewQueue returns a queue holding at most capacity items (0 = unbounded).
func NewQueue[T any](capacity int) *Queue[T] {
	n := 16
	if capacity > 0 {
		n = 1 << bits.Len(uint(capacity-1))
	}
	return &Queue[T]{buf: make([]T, n), cap: capacity}
}

// Cap returns the configured capacity (0 = unbounded).
func (q *Queue[T]) Cap() int { return q.cap }

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.size }

// Empty reports whether the queue holds no items.
func (q *Queue[T]) Empty() bool { return q.size == 0 }

// Full reports whether a Push would fail.
func (q *Queue[T]) Full() bool { return q.cap > 0 && q.size >= q.cap }

// Space returns how many more items can be pushed; a large number for
// unbounded queues.
func (q *Queue[T]) Space() int {
	if q.cap <= 0 {
		return int(^uint(0) >> 1)
	}
	return q.cap - q.size
}

// Push appends v and reports whether it was accepted. A full queue rejects
// the push; callers retry on a later cycle (backpressure).
func (q *Queue[T]) Push(v T) bool {
	if q.Full() {
		return false
	}
	if q.size == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.size)&(len(q.buf)-1)] = v
	q.size++
	q.PushCount++
	return true
}

// Peek returns the oldest item without removing it. ok is false when empty.
func (q *Queue[T]) Peek() (v T, ok bool) {
	if q.size == 0 {
		return v, false
	}
	return q.buf[q.head], true
}

// At returns the i-th oldest item (0 = head) without removing it. It panics
// if i is out of range; use Len to bound the index.
func (q *Queue[T]) At(i int) T {
	if i < 0 || i >= q.size {
		panic("sim: Queue.At index out of range")
	}
	return q.buf[(q.head+i)&(len(q.buf)-1)]
}

// Pop removes and returns the oldest item. ok is false when empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.size == 0 {
		return v, false
	}
	var zero T
	v = q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.size--
	q.PopCount++
	q.maybeShrink()
	if h := q.watch; h != nil && !h.listed {
		h.touch()
	}
	return v, true
}

// RemoveAt removes and returns the i-th oldest item (0 = head), preserving
// the order of the remaining items. Used by schedulers (e.g. FR-FCFS) that
// service requests out of order. It panics if i is out of range.
func (q *Queue[T]) RemoveAt(i int) T {
	if i < 0 || i >= q.size {
		panic("sim: Queue.RemoveAt index out of range")
	}
	mask := len(q.buf) - 1
	v := q.buf[(q.head+i)&mask]
	// Shift the younger items down one slot.
	for j := i; j < q.size-1; j++ {
		q.buf[(q.head+j)&mask] = q.buf[(q.head+j+1)&mask]
	}
	var zero T
	q.buf[(q.head+q.size-1)&mask] = zero
	q.size--
	q.PopCount++
	q.maybeShrink()
	if h := q.watch; h != nil && !h.listed {
		h.touch()
	}
	return v
}

// maybeShrink halves an unbounded queue's retained buffer once occupancy
// falls to a quarter of it, so a burst does not pin memory forever. The 64
// floor avoids churn at small sizes; the 1/4 trigger keeps the cost
// amortized O(1) against the growth that preceded it. Bounded queues never
// shrink (their ring is sized by the capacity).
func (q *Queue[T]) maybeShrink() {
	if q.cap > 0 || len(q.buf) <= 64 || q.size > len(q.buf)/4 {
		return
	}
	q.resize(len(q.buf) / 2)
}

func (q *Queue[T]) grow() { q.resize(2 * len(q.buf)) }

// resize re-linearizes the items into a fresh ring of n slots (a power of
// two no smaller than the occupancy).
func (q *Queue[T]) resize(n int) {
	nb := make([]T, n)
	for i := 0; i < q.size; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = nb
	q.head = 0
}

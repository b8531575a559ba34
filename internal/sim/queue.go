package sim

import (
	"fmt"
	"math/bits"
)

// Queue is a bounded FIFO with backpressure, the basic plumbing between
// pipeline stages. Every queue has a fixed capacity of at least one, as every
// buffer of the modelled hardware does; its buffer is preallocated and never
// grows. The zero value is not usable; construct with NewQueue.
//
// The buffer is a power-of-two ring, so every push, pop and indexed read
// wraps with a mask instead of a division; the ring is the capacity rounded
// up, and Full still answers against the capacity itself.
type Queue[T any] struct {
	buf  []T
	head int
	size int
	cap  int

	// watch, set on the committed queue of an attached Port, is told of every
	// removal: the producer's clock has to refresh its occupancy snapshot of
	// this queue at its next barrier. Its nStaged values sit in the ring right
	// behind the size committed ones.
	watch *portHeader

	// PushCount / PopCount give cumulative traffic through the queue and are
	// used for occupancy and utilization statistics.
	PushCount int64
	PopCount  int64
}

// NewQueue returns a queue holding at most capacity items. A capacity below
// one is a wiring bug and panics.
func NewQueue[T any](capacity int) *Queue[T] {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: queue capacity %d, want at least 1", capacity))
	}
	return &Queue[T]{buf: make([]T, 1<<bits.Len(uint(capacity-1))), cap: capacity}
}

// Cap returns the configured capacity.
func (q *Queue[T]) Cap() int { return q.cap }

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.size }

// Empty reports whether the queue holds no items.
func (q *Queue[T]) Empty() bool { return q.size == 0 }

// Full reports whether a Push would fail.
func (q *Queue[T]) Full() bool { return q.size >= q.cap }

// Space returns how many more items can be pushed.
func (q *Queue[T]) Space() int { return q.cap - q.size }

// Push appends v and reports whether it was accepted. A full queue rejects
// the push; callers retry on a later cycle (backpressure).
func (q *Queue[T]) Push(v T) bool {
	if q.Full() {
		return false
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
	// Shift the younger items down one slot: on an attached Port, the values
	// staged behind the committed ones move too, so they stay contiguous.
	n := q.size
	if q.watch != nil {
		n += q.watch.nStaged
	}
	mask := len(q.buf) - 1
	v := q.buf[(q.head+i)&mask]
	for j := i; j < n-1; j++ {
		q.buf[(q.head+j)&mask] = q.buf[(q.head+j+1)&mask]
	}
	var zero T
	q.buf[(q.head+n-1)&mask] = zero
	q.size--
	q.PopCount++
	if h := q.watch; h != nil && !h.listed {
		h.touch()
	}
	return v
}

package sim

import (
	"fmt"

	"dcl1sim/internal/health"
)

// QueueState is the non-generic health view of a Queue, satisfied by every
// Queue[T] instantiation.
type QueueState interface {
	Len() int
	Cap() int
	Traffic() (pushes, pops int64)
}

// Traffic returns the cumulative push and pop counts (QueueState).
func (q *Queue[T]) Traffic() (pushes, pops int64) { return q.PushCount, q.PopCount }

// CheckQueue verifies a queue's conservation invariant
// (pushes - pops == occupancy) and its capacity bound, reporting violations
// under the given component name.
func CheckQueue(component, queue string, q QueueState) []health.Violation {
	var out []health.Violation
	pushes, pops := q.Traffic()
	if pushes-pops != int64(q.Len()) {
		out = append(out, health.Violation{
			Component: component, Rule: "queue-accounting",
			Detail: fmt.Sprintf("%s: pushes %d - pops %d != occupancy %d", queue, pushes, pops, q.Len()),
		})
	}
	if c := q.Cap(); q.Len() > c {
		out = append(out, health.Violation{
			Component: component, Rule: "queue-overflow",
			Detail: fmt.Sprintf("%s: occupancy %d exceeds capacity %d", queue, q.Len(), c),
		})
	}
	return out
}

// DefaultHeadAgeBound is the QueueWatcher stall bound: a non-empty queue
// whose head has not moved for this many reference cycles is reported stuck.
const DefaultHeadAgeBound Cycle = 10_000

// QueueWatcher observes one queue from the health layer's sampling points
// and implements health.Checker with a head-age bound: if the queue stays
// non-empty with no pops across AgeBound reference cycles of observations,
// the head is declared stuck. Observation happens only at watchdog sampling
// points, so the simulation hot path pays nothing.
type QueueWatcher struct {
	Component string
	Queue     string
	Q         QueueState
	AgeBound  Cycle // 0 selects DefaultHeadAgeBound

	pops      int64
	headSince Cycle // ref cycle the current head was first observed; -1 = empty
	lastSeen  Cycle
	primed    bool
}

// NewQueueWatcher builds a watcher for q, reporting under component/queue.
func NewQueueWatcher(component, queue string, q QueueState) *QueueWatcher {
	return &QueueWatcher{Component: component, Queue: queue, Q: q, headSince: -1}
}

// Observe records the queue state at a watchdog sampling point.
func (w *QueueWatcher) Observe(refCycle Cycle) {
	w.lastSeen = refCycle
	_, pops := w.Q.Traffic()
	switch {
	case w.Q.Len() == 0:
		w.headSince = -1
	case !w.primed || pops != w.pops || w.headSince < 0:
		// Head moved (or first sighting of a non-empty queue): restart age.
		w.headSince = refCycle
	}
	w.pops = pops
	w.primed = true
}

// HeadAge returns how long the current head has been waiting, in reference
// cycles (0 when empty or unobserved).
func (w *QueueWatcher) HeadAge() Cycle {
	if w.headSince < 0 || !w.primed {
		return 0
	}
	return w.lastSeen - w.headSince
}

// CheckInvariants implements health.Checker.
func (w *QueueWatcher) CheckInvariants() []health.Violation {
	out := CheckQueue(w.Component, w.Queue, w.Q)
	bound := w.AgeBound
	if bound <= 0 {
		bound = DefaultHeadAgeBound
	}
	if age := w.HeadAge(); age >= bound {
		out = append(out, health.Violation{
			Component: w.Component, Rule: "queue-head-stuck", Warn: true,
			Detail: fmt.Sprintf("%s: head waiting %d cycles (occupancy %d/%d)",
				w.Queue, age, w.Q.Len(), w.Q.Cap()),
		})
	}
	return out
}

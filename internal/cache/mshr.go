package cache

import (
	"dcl1sim/internal/mem"
	"dcl1sim/internal/sim"
)

// mshrTable maps line → mshrEntry with a fixed-capacity lineIndex instead of
// a Go map: the MSHR lookup sits on the miss path of every cache level. The
// index is sized at 2x the MSHR count (load factor <= 0.5), and retired waiter
// slices are recycled through an embedded free list, so the steady state
// allocates nothing.
//
// Entry pointers returned by get/insert are valid only until the next
// remove: insertion never relocates existing slots, but backward-shift
// deletion does. All Ctrl uses hold the pointer within one serve/fill step,
// which never interleaves a remove before the last use.
type mshrTable struct {
	lineIndex
	slots    []mshrEntry // payload of the index's slots
	mergeCap int         // waiter-slice capacity hint (MaxMerge)
	spare    [][]*mem.Access
	// gen advances on every insert and remove: a "no entry for this line"
	// verdict taken at one gen holds for as long as gen does.
	gen uint64
}

// newMSHRTable sizes the table to the next power of two >= 2*capacity so
// probes stay short; mergeCap seeds recycled waiter slices.
func newMSHRTable(capacity, mergeCap int) *mshrTable {
	size := 8
	for size < 2*capacity {
		size *= 2
	}
	return &mshrTable{lineIndex: newLineIndex(size), slots: make([]mshrEntry, size), mergeCap: mergeCap}
}

// len returns the number of allocated entries.
func (t *mshrTable) len() int { return t.n }

// get returns the entry for line, or nil. The pointer is valid until the
// next remove.
func (t *mshrTable) get(line uint64) *mshrEntry {
	if i, ok := t.find(line); ok {
		return &t.slots[i]
	}
	return nil
}

// insert allocates an entry for line (which must not be present) and returns
// it with an empty waiter slice. The caller enforces the MSHR capacity bound;
// the index always has free slots (load factor <= 0.5).
func (t *mshrTable) insert(line uint64, now sim.Cycle) *mshrEntry {
	i, _ := t.find(line)
	t.put(i, line)
	e := &t.slots[i]
	e.allocAt = now
	e.waiters = t.takeWaiters()
	t.gen++
	return e
}

// takeWaiters pops a recycled waiter slice (len 0, grown capacity) or makes
// a fresh one at the merge-bound capacity.
func (t *mshrTable) takeWaiters() []*mem.Access {
	if n := len(t.spare); n > 0 {
		w := t.spare[n-1]
		t.spare[n-1] = nil
		t.spare = t.spare[:n-1]
		return w
	}
	return make([]*mem.Access, 0, t.mergeCap)
}

// remove frees line's entry, recycling its waiter storage.
func (t *mshrTable) remove(line uint64) {
	i, ok := t.find(line)
	if !ok {
		return
	}
	w := t.slots[i].waiters
	for j := range w {
		w[j] = nil // release access references held past len
	}
	t.spare = append(t.spare, w[:0])
	t.gen++
	t.slots[t.vacate(i, func(dst, src int) { t.slots[dst] = t.slots[src] })] = mshrEntry{}
}

// forEach visits every allocated entry in slot order (health audits only;
// iteration order is not part of the simulation).
func (t *mshrTable) forEach(fn func(line uint64, e *mshrEntry)) {
	for i, k := range t.keys {
		if k != 0 {
			fn(k-1, &t.slots[i])
		}
	}
}

package cache

import (
	"math/bits"

	"dcl1sim/internal/mem"
	"dcl1sim/internal/sim"
)

// mshrTable maps line → mshrEntry with fixed-capacity open addressing
// (linear probing, backward-shift deletion) instead of a Go map. The MSHR
// lookup sits on the miss path of every cache level, and map[uint64]* costs
// a hash, a bucket walk, and an entry allocation per miss; the table is a
// flat slot array sized at 2x the MSHR count (load factor <= 0.5), with
// retired waiter slices recycled through an embedded free list so the
// steady state allocates nothing.
//
// Entry pointers returned by get/insert are valid only until the next
// remove: linear-probe insertion never relocates existing slots, but
// backward-shift deletion does. All Ctrl uses hold the pointer within one
// serve/fill step, which never interleaves a remove before the last use.
type mshrTable struct {
	slots    []mshrSlot
	mask     uint64
	shift    uint
	n        int
	mergeCap int // waiter-slice capacity hint (MaxMerge)
	spare    [][]*mem.Access
	// gen advances on every insert and remove: a "no entry for this line"
	// verdict taken at one gen holds for as long as gen does.
	gen uint64
}

type mshrSlot struct {
	used bool
	line uint64
	e    mshrEntry
}

// newMSHRTable sizes the slot array to the next power of two >= 2*capacity
// so probes stay short; mergeCap seeds recycled waiter slices.
func newMSHRTable(capacity, mergeCap int) *mshrTable {
	size := 8
	for size < 2*capacity {
		size *= 2
	}
	return &mshrTable{
		slots:    make([]mshrSlot, size),
		mask:     uint64(size - 1),
		shift:    uint(64 - bits.TrailingZeros(uint(size))),
		mergeCap: mergeCap,
	}
}

// home returns the preferred slot for a line: multiplicative (Fibonacci)
// hashing keeps sequential lines — the common GPU stride pattern — from
// clustering into probe chains.
func (t *mshrTable) home(line uint64) uint64 {
	return (line * 0x9E3779B97F4A7C15) >> t.shift
}

// len returns the number of allocated entries.
func (t *mshrTable) len() int { return t.n }

// get returns the entry for line, or nil. The pointer is valid until the
// next remove.
func (t *mshrTable) get(line uint64) *mshrEntry {
	i := t.home(line)
	for t.slots[i].used {
		if t.slots[i].line == line {
			return &t.slots[i].e
		}
		i = (i + 1) & t.mask
	}
	return nil
}

// insert allocates an entry for line (which must not be present) and returns
// it with an empty waiter slice. The caller enforces the MSHR capacity bound;
// the slot array always has free slots (load factor <= 0.5).
func (t *mshrTable) insert(line uint64, now sim.Cycle) *mshrEntry {
	i := t.home(line)
	for t.slots[i].used {
		i = (i + 1) & t.mask
	}
	s := &t.slots[i]
	s.used = true
	s.line = line
	s.e.allocAt = now
	s.e.waiters = t.takeWaiters()
	t.n++
	t.gen++
	return &s.e
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

// remove frees line's entry, recycling its waiter storage. Backward-shift
// deletion keeps probe chains tombstone-free: every displaced slot that can
// legally fill the hole (its home position not cyclically inside (hole, slot])
// is moved back, so lookups stay short for the whole run.
func (t *mshrTable) remove(line uint64) {
	i := t.home(line)
	for {
		if !t.slots[i].used {
			return // not present
		}
		if t.slots[i].line == line {
			break
		}
		i = (i + 1) & t.mask
	}
	w := t.slots[i].e.waiters
	for j := range w {
		w[j] = nil // release access references held past len
	}
	t.spare = append(t.spare, w[:0])
	t.n--
	t.gen++
	j := i
	for {
		t.slots[i] = mshrSlot{}
		for {
			j = (j + 1) & t.mask
			if !t.slots[j].used {
				return
			}
			k := t.home(t.slots[j].line)
			// Move slot j into the hole at i only if its home does not lie in
			// the cyclic interval (i, j] — otherwise the shift would break
			// slot j's own probe chain.
			if i <= j {
				if k <= i || k > j {
					break
				}
			} else if k <= i && k > j {
				break
			}
		}
		t.slots[i] = t.slots[j]
		i = j
	}
}

// forEach visits every allocated entry in slot order (health audits only;
// iteration order is not part of the simulation).
func (t *mshrTable) forEach(fn func(line uint64, e *mshrEntry)) {
	for i := range t.slots {
		if t.slots[i].used {
			fn(t.slots[i].line, &t.slots[i].e)
		}
	}
}

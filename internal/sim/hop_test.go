package sim

import "testing"

// refDelayHeap is the hand-rolled binary heap DelayQueue used to be, ordered
// by (readyAt, insertion sequence) — kept as the reference for its pop order.
type refDelayHeap struct {
	h   []refDelayItem
	seq int64
}

type refDelayItem struct {
	readyAt Cycle
	seq     int64
	v       int
}

func (d *refDelayHeap) less(i, j int) bool {
	if d.h[i].readyAt != d.h[j].readyAt {
		return d.h[i].readyAt < d.h[j].readyAt
	}
	return d.h[i].seq < d.h[j].seq
}

func (d *refDelayHeap) push(v int, readyAt Cycle) {
	d.h = append(d.h, refDelayItem{readyAt, d.seq, v})
	d.seq++
	for i := len(d.h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !d.less(i, parent) {
			break
		}
		d.h[i], d.h[parent] = d.h[parent], d.h[i]
		i = parent
	}
}

func (d *refDelayHeap) popReady(now Cycle) (int, bool) {
	if len(d.h) == 0 || d.h[0].readyAt > now {
		return 0, false
	}
	v := d.h[0].v
	n := len(d.h) - 1
	d.h[0] = d.h[n]
	d.h = d.h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && d.less(r, l) {
			min = r
		}
		if !d.less(min, i) {
			break
		}
		d.h[i], d.h[min] = d.h[min], d.h[i]
		i = min
	}
	return v, true
}

// DelayQueue releases in (readyAt, insertion) order on random streams:
// monotone latencies, jittered ones, bursts of ties, and release cycles
// already in the past.
func TestDelayQueueMatchesReferenceOrder(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := NewRNG(seed)
		q := NewDelayQueue[int]()
		ref := &refDelayHeap{}
		spread := 1 + rng.Intn(40) // 1 = fixed latency: every push lands at the tail
		next := 0
		for now := Cycle(0); now < 3000; now++ {
			for k := rng.Intn(4); k > 0; k-- {
				at := now + 5 + Cycle(rng.Intn(spread)) - Cycle(rng.Intn(2))*Cycle(rng.Intn(12))
				q.Push(next, at)
				ref.push(next, at)
				next++
			}
			if rng.Intn(3) == 0 {
				continue // let ready items pile up
			}
			if at, ok := q.NextReadyAt(); ok != (len(ref.h) > 0) || (ok && at != ref.h[0].readyAt) {
				t.Fatalf("seed %d cycle %d: NextReadyAt = %d,%v; reference head %v", seed, now, at, ok, ref.h)
			}
			for {
				want, ok := ref.popReady(now)
				if pv, pok := q.PeekReady(now); pok != ok || (ok && pv != want) {
					t.Fatalf("seed %d cycle %d: PeekReady = %d,%v, want %d,%v", seed, now, pv, pok, want, ok)
				}
				got, gok := q.PopReady(now)
				if gok != ok || got != want {
					t.Fatalf("seed %d cycle %d: PopReady = %d,%v, want %d,%v", seed, now, got, gok, want, ok)
				}
				if !ok {
					break
				}
			}
			if q.Len() != len(ref.h) {
				t.Fatalf("seed %d cycle %d: Len = %d, want %d", seed, now, q.Len(), len(ref.h))
			}
		}
	}
}

// A bounded queue's ring is its capacity rounded up to a power of two, but
// the queue is full at the capacity itself and the ring never grows.
func TestQueueNonPowerOfTwoCapacity(t *testing.T) {
	for _, c := range []int{1, 3, 5, 12, 16} {
		q := NewQueue[int](c)
		ring := len(q.buf)
		if ring&(ring-1) != 0 || ring < c || ring >= 2*c && c > 1 {
			t.Fatalf("cap %d: ring of %d slots", c, ring)
		}
		next, want := 0, 0
		for round := 0; round < 50; round++ { // wrap the ring many times over
			for !q.Full() {
				if !q.Push(next) {
					t.Fatalf("cap %d: push refused below capacity at len %d", c, q.Len())
				}
				next++
			}
			if q.Len() != c || q.Cap() != c || q.Space() != 0 {
				t.Fatalf("cap %d: Full at len %d (Cap %d, Space %d)", c, q.Len(), q.Cap(), q.Space())
			}
			if q.Push(-1) {
				t.Fatalf("cap %d: push accepted at capacity", c)
			}
			for i := 0; i < q.Len(); i++ {
				if got := q.At(i); got != want+i {
					t.Fatalf("cap %d: At(%d) = %d, want %d", c, i, got, want+i)
				}
			}
			if c > 2 { // RemoveAt across the wrap point
				if got := q.RemoveAt(1); got != want+1 {
					t.Fatalf("cap %d: RemoveAt(1) = %d, want %d", c, got, want+1)
				}
				if got, _ := q.Pop(); got != want {
					t.Fatalf("cap %d: Pop = %d, want %d", c, got, want)
				}
				want += 2
			}
			for k := round % (c + 1); k > 0 && !q.Empty(); k-- {
				if got, _ := q.Pop(); got != want {
					t.Fatalf("cap %d: Pop = %d, want %d", c, got, want)
				}
				want++
			}
			if len(q.buf) != ring {
				t.Fatalf("cap %d: ring resized from %d to %d", c, ring, len(q.buf))
			}
		}
	}
}

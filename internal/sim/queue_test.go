package sim

import (
	"testing"
	"testing/quick"
)

func TestQueueFIFO(t *testing.T) {
	q := NewQueue[int](4)
	for i := 0; i < 4; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d rejected", i)
		}
	}
	if q.Push(99) {
		t.Fatal("push into full queue accepted")
	}
	for i := 0; i < 4; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d: got %d ok=%v", i, v, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

func TestQueueWrapAround(t *testing.T) {
	q := NewQueue[int](3)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			if !q.Push(round*10 + i) {
				t.Fatalf("round %d push %d rejected", round, i)
			}
		}
		for i := 0; i < 3; i++ {
			v, _ := q.Pop()
			if v != round*10+i {
				t.Fatalf("round %d: got %d want %d", round, v, round*10+i)
			}
		}
	}
}

func TestNewQueueRejectsZeroCapacity(t *testing.T) {
	for _, c := range []int{0, -1} {
		for name, mk := range map[string]func(){
			"NewQueue": func() { NewQueue[int](c) },
			"NewPort":  func() { NewPort[int](c) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d) did not panic", name, c)
					}
				}()
				mk()
			}()
		}
	}
}

func TestBoundedQueueNeverShrinks(t *testing.T) {
	q := NewQueue[int](128)
	for i := 0; i < 128; i++ {
		q.Push(i)
	}
	for i := 0; i < 128; i++ {
		q.Pop()
	}
	if len(q.buf) != 128 {
		t.Fatalf("bounded buffer resized to %d", len(q.buf))
	}
}

func TestQueuePeekAndAt(t *testing.T) {
	q := NewQueue[string](8)
	q.Push("a")
	q.Push("b")
	q.Push("c")
	if v, ok := q.Peek(); !ok || v != "a" {
		t.Fatalf("peek = %q", v)
	}
	if q.At(2) != "c" {
		t.Fatalf("At(2) = %q", q.At(2))
	}
	if q.Len() != 3 {
		t.Fatal("peek must not consume")
	}
}

func TestQueueRemoveAt(t *testing.T) {
	q := NewQueue[int](8)
	for i := 0; i < 5; i++ {
		q.Push(i)
	}
	if got := q.RemoveAt(2); got != 2 {
		t.Fatalf("RemoveAt(2) = %d", got)
	}
	want := []int{0, 1, 3, 4}
	for i, w := range want {
		if got := q.At(i); got != w {
			t.Fatalf("after removal At(%d) = %d, want %d", i, got, w)
		}
	}
	// Remove head and tail.
	if got := q.RemoveAt(0); got != 0 {
		t.Fatalf("RemoveAt(0) = %d", got)
	}
	if got := q.RemoveAt(q.Len() - 1); got != 4 {
		t.Fatalf("RemoveAt(last) = %d", got)
	}
}

func TestQueueSpace(t *testing.T) {
	q := NewQueue[int](2)
	if q.Space() != 2 {
		t.Fatalf("space = %d", q.Space())
	}
	q.Push(1)
	if q.Space() != 1 || q.Full() {
		t.Fatalf("space = %d full=%v", q.Space(), q.Full())
	}
	q.Push(2)
	if !q.Full() {
		t.Fatal("queue should be full")
	}
}

// Property: any interleaving of pushes and pops preserves FIFO order and
// never exceeds capacity.
func TestQueueFIFOProperty(t *testing.T) {
	f := func(ops []bool, capSeed uint8) bool {
		capacity := int(capSeed%8) + 1
		q := NewQueue[int](capacity)
		next := 0
		expect := 0
		for _, push := range ops {
			if push {
				if q.Push(next) {
					next++
				}
				if q.Len() > capacity {
					return false
				}
			} else {
				if v, ok := q.Pop(); ok {
					if v != expect {
						return false
					}
					expect++
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDelayQueueOrdering(t *testing.T) {
	d := NewDelayQueue[int]()
	d.Push(1, 10)
	d.Push(2, 5)
	d.Push(3, 10) // same release as 1: insertion order must win
	if _, ok := d.PopReady(4); ok {
		t.Fatal("released before time")
	}
	if v, ok := d.PopReady(5); !ok || v != 2 {
		t.Fatalf("got %d at t=5", v)
	}
	if v, ok := d.PopReady(10); !ok || v != 1 {
		t.Fatalf("got %d first at t=10", v)
	}
	if v, ok := d.PopReady(10); !ok || v != 3 {
		t.Fatalf("got %d second at t=10", v)
	}
	if d.Len() != 0 {
		t.Fatalf("len = %d", d.Len())
	}
}

func TestDelayQueueNextReadyAt(t *testing.T) {
	d := NewDelayQueue[int]()
	if _, ok := d.NextReadyAt(); ok {
		t.Fatal("empty queue reported a ready time")
	}
	d.Push(7, 42)
	if c, ok := d.NextReadyAt(); !ok || c != 42 {
		t.Fatalf("NextReadyAt = %d,%v", c, ok)
	}
	if v, ok := d.PeekReady(42); !ok || v != 7 {
		t.Fatalf("PeekReady = %d,%v", v, ok)
	}
	if d.Len() != 1 {
		t.Fatal("peek must not consume")
	}
}

// Property: items always come out in nondecreasing readyAt order when drained
// after all pushes.
func TestDelayQueueSortedProperty(t *testing.T) {
	f := func(delays []uint8) bool {
		d := NewDelayQueue[int]()
		for i, del := range delays {
			d.Push(i, Cycle(del))
		}
		last := Cycle(-1)
		for {
			v, ok := d.PopReady(1 << 30)
			if !ok {
				break
			}
			at := Cycle(delays[v])
			if at < last {
				return false
			}
			last = at
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(12345), NewRNG(12345)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(54321)
	same := true
	a2 := NewRNG(12345)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
	}
}

func TestRNGZipfSkew(t *testing.T) {
	r := NewRNG(11)
	const n = 1000
	counts := make([]int, n)
	z := NewZipf(n, 1.0)
	for i := 0; i < 200000; i++ {
		counts[z.Draw(r)]++
	}
	// Low indices must dominate: index 0 should be hit far more than index 500.
	if counts[0] <= counts[500]*5 {
		t.Fatalf("zipf not skewed: c0=%d c500=%d", counts[0], counts[500])
	}
	// s=0 must be roughly uniform.
	u := NewRNG(13)
	counts2 := make([]int, 10)
	z = NewZipf(10, 0)
	for i := 0; i < 100000; i++ {
		counts2[z.Draw(u)]++
	}
	for i, c := range counts2 {
		if c < 8000 || c > 12000 {
			t.Fatalf("uniform zipf bucket %d = %d", i, c)
		}
	}
}

func TestRNGZipfInRange(t *testing.T) {
	r := NewRNG(17)
	for _, s := range []float64{0, 0.5, 1, 1.5, 3} {
		z := NewZipf(37, s)
		for i := 0; i < 2000; i++ {
			v := z.Draw(r)
			if v < 0 || v >= 37 {
				t.Fatalf("Zipf(37, %f) = %d out of range", s, v)
			}
		}
	}
	one, none := NewZipf(1, 2), NewZipf(0, 2)
	if one.Draw(r) != 0 || none.Draw(r) != 0 {
		t.Fatal("degenerate Zipf must return 0")
	}
}

func TestQueueCounters(t *testing.T) {
	q := NewQueue[int](4)
	q.Push(1)
	q.Push(2)
	q.Pop()
	if q.PushCount != 2 || q.PopCount != 1 {
		t.Fatalf("counters: push=%d pop=%d", q.PushCount, q.PopCount)
	}
	if q.Cap() != 4 {
		t.Fatalf("Cap = %d", q.Cap())
	}
}

func TestQueueAtPanics(t *testing.T) {
	q := NewQueue[int](4)
	q.Push(1)
	for _, idx := range []int{-1, 1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) did not panic", idx)
				}
			}()
			q.At(idx)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("RemoveAt out of range did not panic")
		}
	}()
	q.RemoveAt(3)
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	NewRNG(1).Intn(0)
}

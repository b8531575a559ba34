package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// feedHost is the smallest host a feed can have: a component with no work
// of its own, which ticks exactly when one of its feeds can move.
type feedHost struct {
	feeds Feeds[int]
	ticks int
}

func (h *feedHost) Tick(Cycle) { h.ticks++; h.feeds.Run() }

func (h *feedHost) NextWorkCycle(now Cycle) Cycle {
	if h.feeds.Busy() {
		return now
	}
	return WakeNever
}

func (h *feedHost) WakeSources() []PortRef { return h.feeds.WakeSources() }

// A two-source fan-in feed in the middle of a back-pressured chain — two
// stuffers fill its sources, a slow drainer empties its one-slot-short
// destination — moves the same values on the same cycles as on the
// always-ticking engine, on the producer's clock and across a slower one in
// both tie orders. Asleep behind its refusals, its host ticks about twice per
// value moved (the relent that lets it move one, the refill of the source it
// moved from), not on every edge of the run.
func TestFeedSleepsThroughBackPressure(t *testing.T) {
	takes := map[Cycle][2]int{}
	for c := Cycle(10); c < 10+7*40; c += 7 {
		takes[c] = [2]int{1, 0}
	}
	takes[400] = [2]int{4, 0}
	for _, v := range []struct {
		name            string
		same, consFirst bool
	}{
		{"same-clock", true, false},
		{"cross-clock", false, false},
		{"cross-clock-consumer-wins-ties", false, true},
	} {
		var want []string
		for _, fast := range []bool{false, true} {
			e := NewEngine()
			e.SetFastPath(fast)
			prod, cons := twoClocks(e, v.same, v.consFirst)
			dst := NewPort[int](3)
			dst.Attach(prod)
			var srcs []*Port[int]
			for i := 0; i < 2; i++ {
				src := NewPort[int](2)
				src.Attach(prod)
				srcs = append(srcs, src)
				prod.Register(&stuffer{out: src, left: 20, rate: 2})
			}
			h := &feedHost{}
			var from int
			h.feeds.Add(&Feed[int]{
				Srcs: srcs, Rate: 2, Space: []PortRef{dst.SpaceRef()},
				Prep: func(src, _ int) { from = src },
				Try:  func(x int) bool { return dst.Push(100*from + x) },
			})
			prod.Register(h)
			d := &drainer{in: dst, at: takes}
			cons.Register(d)
			e.RunUntil(prod, 2_000)
			if len(d.log) != 40 {
				t.Fatalf("%s fast=%v: drained %d of 40 values: %v", v.name, fast, len(d.log), d.log)
			}
			if want == nil {
				want = d.log // legacy: every component ticks on every edge
				if fmt.Sprint(want[:3]) != "[take0@10 take1@17 take100@24]" {
					t.Fatalf("%s: the reference run does not alternate the sources: %v", v.name, want)
				}
				continue
			}
			if !reflect.DeepEqual(d.log, want) {
				t.Errorf("%s: deliveries differ from the always-ticking run:\n got %v\nwant %v", v.name, d.log, want)
			}
			if h.ticks > 3*40 {
				t.Errorf("%s: host ticked %d times to move 40 values: the feed polls through the back-pressure", v.name, h.ticks)
			}
		}
	}
}

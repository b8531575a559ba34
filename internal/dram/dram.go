// Package dram models the GDDR5 memory system: per-channel controllers with
// FR-FCFS (first-ready, first-come-first-served) scheduling over banked DRAM
// with row-buffer state, matching the paper's 16-channel Hynix-GDDR5-class
// configuration (Table II). Timing is expressed in memory-clock cycles
// (924 MHz); the gpu package places channels in the memory clock domain.
package dram

import (
	"math/bits"

	"dcl1sim/internal/chaos"
	"dcl1sim/internal/mem"
	"dcl1sim/internal/sim"
)

// Timing captures the DRAM timing parameters the model respects. Values are
// GDDR5-class defaults in memory-clock cycles.
type Timing struct {
	TRCD   sim.Cycle // activate to read/write
	TRP    sim.Cycle // precharge
	TCL    sim.Cycle // read column access
	TWL    sim.Cycle // write latency
	TBurst sim.Cycle // data burst occupancy of the channel bus
	TRAS   sim.Cycle // minimum row-open time
}

// DefaultTiming returns GDDR5-like timings.
func DefaultTiming() Timing {
	return Timing{TRCD: 12, TRP: 12, TCL: 12, TWL: 4, TBurst: 4, TRAS: 28}
}

// Params configures one memory channel.
type Params struct {
	Name     string
	Banks    int
	Timing   Timing
	QueueCap int
	Map      mem.AddressMap
}

func (p Params) withDefaults() Params {
	if p.Banks <= 0 {
		p.Banks = 16
	}
	if p.QueueCap <= 0 {
		p.QueueCap = 32
	}
	z := Timing{}
	if p.Timing == z {
		p.Timing = DefaultTiming()
	}
	if p.Map.RowLines <= 0 {
		p.Map = mem.AddressMap{L2Slices: 32, Channels: 16, Banks: p.Banks, RowLines: 16}
	}
	return p
}

// Stats aggregates channel activity.
type Stats struct {
	Reads     int64
	Writes    int64
	RowHits   int64
	RowMisses int64
	BusyBurst int64 // cycles the data bus was occupied
	Cycles    int64
}

// RowHitRate returns row-buffer hits over all accesses.
func (s *Stats) RowHitRate() float64 {
	t := s.RowHits + s.RowMisses
	if t == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(t)
}

// BusUtilization returns the fraction of cycles the data bus was busy.
func (s *Stats) BusUtilization() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.BusyBurst) / float64(s.Cycles)
}

type bank struct {
	rowOpen  bool
	row      uint64
	readyAt  sim.Cycle // bank can accept a new column command
	openedAt sim.Cycle // for tRAS
}

// Channel is one GDDR5 channel with an FR-FCFS request scheduler.
//
//	In   requests (loads fetch a line; stores are fire-and-ack writebacks)
//	Out  read replies and write ACKs
type Channel struct {
	P    Params
	In   *sim.Port[*mem.Access]
	Out  *sim.Port[*mem.Access]
	Stat Stats

	// Chaos, when set, injects per-issue timing jitter and refresh storms
	// (windows with no command issue). Queried only with requests queued, so
	// the fault schedule is fast-path-invariant; nil is a no-op.
	Chaos *chaos.Injector

	// Feeds run at the end of Tick: glue between other components' ports
	// on the memory clock that the channel hosts (sim.Feed).
	Feeds sim.Feeds[*mem.Access]

	banks    []bank
	busBusy  sim.Cycle
	inflight *sim.DelayQueue[*mem.Access]
	lastTick sim.Cycle // most recent Tick cycle, for stuck-access auditing

	// minReady caches the minimum readyAt across all banks. While now is
	// below it, no queued request's bank can accept a command, so pickRequest
	// would scan the whole queue and return -1 — the tick skips the scan.
	// The skip is exact, not heuristic: min over all banks lower-bounds min
	// over the requested banks. Recomputed lazily after any readyAt change.
	minReady      sim.Cycle
	minReadyDirty bool

	// Shift/mask form of the line → (bank, row) map, valid when pow2: with
	// Map.RowLines, Map.Banks and Banks all powers of two (Table II's 16/16
	// are), line/RowLines%Map.Banks%Banks and line/RowLines/Map.Banks need
	// no division. The FR-FCFS scan locates every queued request every
	// cycle, so three run-time divisions per request were its whole cost.
	pow2      bool
	rowShift  uint   // log2(Map.RowLines)
	bankShift uint   // log2(Map.Banks)
	bankMask  uint64 // (Map.Banks-1) & (Banks-1)
}

// New builds a channel.
func New(p Params) *Channel {
	p = p.withDefaults()
	c := &Channel{
		P:        p,
		In:       sim.NewPort[*mem.Access](p.QueueCap),
		Out:      sim.NewPort[*mem.Access](p.QueueCap),
		banks:    make([]bank, p.Banks),
		inflight: sim.NewDelayQueue[*mem.Access](),
	}
	if isPow2(p.Map.RowLines) && isPow2(p.Map.Banks) && isPow2(p.Banks) {
		c.pow2 = true
		c.rowShift = uint(bits.TrailingZeros(uint(p.Map.RowLines)))
		c.bankShift = uint(bits.TrailingZeros(uint(p.Map.Banks)))
		c.bankMask = uint64(p.Map.Banks-1) & uint64(p.Banks-1)
	}
	return c
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// locate returns the bank (index into c.banks) and the row of a line:
// Map.Bank(line) % Banks and Map.Row(line), by shift and mask when the
// geometry allows and by division otherwise.
func (c *Channel) locate(line uint64) (bank int, row uint64) {
	if c.pow2 {
		r := line >> c.rowShift
		return int(r & c.bankMask), r >> c.bankShift
	}
	return c.P.Map.Bank(line) % c.P.Banks, c.P.Map.Row(line)
}

// Tick advances the channel one memory-clock cycle, then runs its feeds.
func (c *Channel) Tick(now sim.Cycle) {
	c.tick(now)
	c.Feeds.Run()
}

func (c *Channel) tick(now sim.Cycle) {
	c.lastTick = now
	c.Stat.Cycles++
	// Complete finished accesses.
	for !c.Out.Full() {
		a, ok := c.inflight.PopReady(now)
		if !ok {
			break
		}
		c.Out.Push(a.Reply())
	}
	// FR-FCFS: issue at most one column command per cycle. Bank operations
	// overlap freely; only the data bursts serialize on the shared bus, so a
	// command whose burst would collide is simply scheduled later.
	if c.In.Empty() {
		return
	}
	if c.Chaos.RefreshStorm(now) {
		return // storm window: no command issue; in-flight bursts still drain
	}
	if c.minReadyDirty {
		c.minReady = c.banks[0].readyAt
		for i := 1; i < len(c.banks); i++ {
			if c.banks[i].readyAt < c.minReady {
				c.minReady = c.banks[i].readyAt
			}
		}
		c.minReadyDirty = false
	}
	if now < c.minReady {
		return // every bank busy: the queue scan cannot find an issuable request
	}
	idx := c.pickRequest(now)
	if idx < 0 {
		return
	}
	a := c.In.RemoveAt(idx)
	bi, row := c.locate(a.Line)
	b := &c.banks[bi]
	t := c.P.Timing
	var dataAt sim.Cycle
	if b.rowOpen && b.row == row {
		c.Stat.RowHits++
		dataAt = maxCycle(now, b.readyAt) + t.TCL
	} else {
		c.Stat.RowMisses++
		start := maxCycle(now, b.readyAt)
		if b.rowOpen {
			// Respect tRAS before precharging, then tRP + tRCD.
			pre := maxCycle(start, b.openedAt+t.TRAS)
			start = pre + t.TRP
		}
		start += t.TRCD
		b.rowOpen = true
		b.row = row
		b.openedAt = start
		dataAt = start + t.TCL
	}
	dataAt += c.Chaos.DramJitter(now)
	// Serialize the burst on the channel data bus.
	dataAt = maxCycle(dataAt, c.busBusy)
	b.readyAt = dataAt + t.TBurst
	c.minReadyDirty = true
	c.busBusy = dataAt + t.TBurst
	c.Stat.BusyBurst += int64(t.TBurst)
	if a.Kind == mem.Store {
		c.Stat.Writes++
	} else {
		c.Stat.Reads++
	}
	c.inflight.Push(a, dataAt+t.TBurst)
}

// NextWorkCycle implements sim.Sleeper. The channel's future events are a
// queued request's bank coming free and an in-flight access maturing with
// room in Out for its reply; a request arriving or space in a full Out are its
// wake sources.
// A tick with none of these due advances only Stat.Cycles and lastTick, which
// SkipIdle compensates. An armed injector's refresh storms depend on the
// cycle, so with one every tick with requests queued may act.
func (c *Channel) NextWorkCycle(now sim.Cycle) sim.Cycle {
	if c.Feeds.Busy() {
		return now
	}
	wake := sim.WakeNever
	if !c.In.Empty() {
		if c.Chaos != nil {
			return now
		}
		wake = c.nextIssue(now)
	}
	if t, ok := c.inflight.NextReadyAt(); ok && !c.Out.Full() && t < wake {
		wake = t
	}
	return max(wake, now)
}

// nextIssue returns the earliest cycle a queued request can issue: the
// soonest its bank accepts a command, which is now as soon as one bank is
// free. pickRequest finds a request exactly when one's bank is.
func (c *Channel) nextIssue(now sim.Cycle) sim.Cycle {
	at := sim.WakeNever
	for i := 0; i < c.In.Len() && at > now; i++ {
		bi, _ := c.locate(c.In.At(i).Line)
		at = min(at, c.banks[bi].readyAt)
	}
	return at
}

// WakeSources implements sim.WakeSourcer: bank timing and in-flight accesses
// are timers; a request committed into In arrives from outside, and
// so does the space a full Out is waiting for. The feeds add theirs.
func (c *Channel) WakeSources() []sim.PortRef {
	return append([]sim.PortRef{c.In.Ref(), c.Out.SpaceRef()}, c.Feeds.WakeSources()...)
}

// SkipIdle implements sim.IdleSkipper.
func (c *Channel) SkipIdle(now sim.Cycle, n sim.Cycle) {
	c.Stat.Cycles += n
	c.lastTick = now
}

// pickRequest returns the queue index of the request to service: the oldest
// row-hit if any bank has one ready (first-ready), otherwise the oldest
// request (FCFS). Returns -1 when nothing can issue.
func (c *Channel) pickRequest(now sim.Cycle) int {
	if c.In.Empty() {
		return -1
	}
	oldest := -1
	for i := 0; i < c.In.Len(); i++ {
		bi, row := c.locate(c.In.At(i).Line)
		b := &c.banks[bi]
		if b.readyAt > now {
			continue
		}
		if oldest < 0 {
			oldest = i
		}
		if b.rowOpen && b.row == row {
			return i // oldest row hit
		}
	}
	return oldest
}

// Pending returns queued plus in-flight requests (drain checks).
func (c *Channel) Pending() int { return c.In.Len() + c.inflight.Len() }

func maxCycle(a, b sim.Cycle) sim.Cycle {
	if a > b {
		return a
	}
	return b
}

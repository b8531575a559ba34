package cache

import (
	"fmt"

	"dcl1sim/internal/chaos"
	"dcl1sim/internal/mem"
	"dcl1sim/internal/sim"
)

// Policy selects the write behaviour of a controller.
type Policy uint8

// Write policies. WriteEvict is the paper's L1/DC-L1 policy: a write hit
// evicts the line and forwards the write to the next level; a write miss
// allocates nothing (no-write-allocate). WriteBack is the L2 policy: write
// hits dirty the line locally and dirty victims are written back on eviction.
const (
	WriteEvict Policy = iota
	WriteBack
)

// Params configures a cache controller.
type Params struct {
	Name       string
	Sets       int
	Ways       int
	HitLatency sim.Cycle
	MSHRs      int // outstanding distinct misses
	MaxMerge   int // requests merged per MSHR (including the first)
	Ports      int // array accesses accepted per cycle (banking approximation)
	Policy     Policy
	Perfect    bool // every access hits (Fig 4c study)
	// PrefetchNext issues best-effort fetches for the N lines following a
	// demand miss (a simple sequential prefetcher; extension study).
	PrefetchNext int
	// PrefetchStride spaces the prefetched lines. Home-sliced DC-L1s only
	// cache every Y-th line, so their natural stride is the home modulus.
	PrefetchStride int

	// Domain is the clock domain the controller ticks in, Family the level
	// its series' family names start with ("l1", "l2").
	Domain, Family string

	// Queue capacities.
	InCap, OutCap, MissCap, FillCap int

	// Pool recycles the Access values the controller creates (MSHR fetches,
	// writebacks, prefetches) and retires (consumed fills, silent prefetch
	// waiters). Nil means plain allocation; results are identical either way.
	Pool *mem.Pool
}

// withDefaults fills zero fields with safe defaults.
func (p Params) withDefaults() Params {
	if p.Ports <= 0 {
		p.Ports = 1
	}
	if p.MSHRs <= 0 {
		p.MSHRs = 64
	}
	if p.MaxMerge <= 0 {
		p.MaxMerge = 8
	}
	if p.InCap <= 0 {
		p.InCap = 8
	}
	if p.OutCap <= 0 {
		p.OutCap = 8
	}
	if p.MissCap <= 0 {
		p.MissCap = 8
	}
	if p.FillCap <= 0 {
		p.FillCap = 8
	}
	return p
}

// Stats aggregates controller activity. Hit/miss accounting covers loads
// only (the paper's L1 miss rate); store counters are separate.
type Stats struct {
	Loads            int64
	LoadHits         int64
	LoadMisses       int64
	Stores           int64
	StoreHits        int64 // write-evict: store found the line (and evicted it)
	MSHRMerges       int64
	MSHRStalls       int64 // cycles the head request stalled for an MSHR
	Evictions        int64
	Writebacks       int64
	ReplicatedMisses int64 // load misses with the line resident in a peer cache
	Accesses         int64 // array accesses (loads + stores), for port utilization
	BusyCycles       int64 // cycles with >=1 array access
	Prefetches       int64 // sequential prefetches issued
}

// MissRate returns load misses / loads (0 when idle).
func (s *Stats) MissRate() float64 {
	if s.Loads == 0 {
		return 0
	}
	return float64(s.LoadMisses) / float64(s.Loads)
}

// Ctrl is a cycle-driven cache controller with four bounded ports:
//
//	In      requests from the upper level (core or NoC#1)
//	Out     replies to the upper level
//	MissOut requests to the lower level (NoC#2 / L2 / DRAM)
//	FillIn  replies from the lower level
//
// The owning node moves packets between these queues and the network; Ctrl
// itself is topology-agnostic and is reused for baseline L1s, DC-L1 caches,
// and L2 slices.
type Ctrl struct {
	P       Params
	ID      int // global cache id for the replication tracker
	Arr     *Array
	In      *sim.Port[*mem.Access]
	Out     *sim.Port[*mem.Access]
	MissOut *sim.Port[*mem.Access]
	FillIn  *sim.Port[*mem.Access]
	Stat    Stats

	// Chaos, when set, injects fill-path stalls, forced MSHR-exhaustion
	// windows, and the queue-accounting corruption drill. Timing faults are
	// queried only with affected work present, so the fault schedule is
	// fast-path-invariant; the corruption drill fires at a fixed
	// cycle and publishes it through NextWorkCycle. Nil injects nothing.
	Chaos *chaos.Injector

	// Feeds run at the end of Tick: glue between other components' ports
	// on the controller's clock that it hosts (sim.Feed).
	Feeds sim.Feeds[*mem.Access]

	tracker *Presence
	pipe    *sim.DelayQueue[*mem.Access] // hit replies / acks in flight
	mshr    *mshrTable

	miss missMemo
	// tickStalls is how many MSHR stalls the most recent Tick counted (0 or
	// 1: the head request's). A controller that sleeps on that stall owes one
	// per skipped cycle (SkipIdle).
	tickStalls int64

	lastTick sim.Cycle // most recent Tick cycle, for invariant age checks
}

// missMemo memoises the verdict a stalled load re-derived every cycle: its
// line is not in the array, and either has no MSHR entry (the load waits for
// a free MSHR or for MissOut space) or has one whose merge list is full (it
// waits for the fill). The verdict stands while both generation counters do,
// so a stalled load pays only the stall check on the cycles in between — and
// NextWorkCycle can tell a controller that is stalled from one with work.
type missMemo struct {
	ok              bool
	full            bool // the line's MSHR entry exists, merge list full
	line            uint64
	arrGen, mshrGen uint64
}

type mshrEntry struct {
	waiters []*mem.Access
	allocAt sim.Cycle // cycle the entry was allocated, for age auditing
}

// New builds a controller that reports its installs and evictions to tracker
// as cache id; a nil tracker measures no replication.
func New(p Params, id int, tracker *Presence) *Ctrl {
	p = p.withDefaults()
	tracker.join(id)
	return &Ctrl{
		P:       p,
		ID:      id,
		Arr:     NewArray(p.Sets, p.Ways),
		In:      sim.NewPort[*mem.Access](p.InCap),
		Out:     sim.NewPort[*mem.Access](p.OutCap),
		MissOut: sim.NewPort[*mem.Access](p.MissCap),
		FillIn:  sim.NewPort[*mem.Access](p.FillCap),
		tracker: tracker,
		pipe:    sim.NewDelayQueue[*mem.Access](),
		mshr:    newMSHRTable(p.MSHRs, p.MaxMerge),
	}
}

// MSHRInUse returns the number of allocated MSHR entries (for tests).
func (c *Ctrl) MSHRInUse() int { return c.mshr.len() }

// Tick advances the controller one cycle of its clock domain.
func (c *Ctrl) Tick(now sim.Cycle) {
	c.lastTick = now
	c.drainPipe(now)
	if c.FillIn.Empty() || !c.Chaos.FillsBlocked(now) {
		c.processFills(now)
	}
	c.processRequests(now)
	if c.Chaos.CorruptNow(now) {
		// Corruption drill: a push count with no matching push breaks the
		// queue-conservation invariant without perturbing any functional
		// state; the health audit must catch it.
		c.In.PushCount++
	}
	c.Feeds.Run()
}

// NextWorkCycle implements sim.Sleeper. The controller has work when one of
// its three movers can move: the head request can be served, the head fill can
// be consumed, or a reply matures in the latency pipe with room in Out. A
// mover refused by a full output, and a head load stalled on the MSHR file
// with the miss memo standing, stay refused until a fill arrives or the output
// frees — both wake sources — so a tick before then updates only lastTick and
// MSHRStalls, which SkipIdle compensates. An armed injector's fill-stall and
// MSHR-pinch draws depend on the cycle: with one, every tick with input
// waiting may act, and no stall is a reason to sleep. A feed that can move is
// work too.
func (c *Ctrl) NextWorkCycle(now sim.Cycle) sim.Cycle {
	if c.Feeds.Busy() {
		return now
	}
	if c.Chaos != nil {
		if !c.In.Empty() || !c.FillIn.Empty() {
			return now
		}
	} else {
		if a, ok := c.In.Peek(); ok && !c.headStalled(a) {
			return now
		}
		if a, ok := c.FillIn.Peek(); ok && !c.fillStalled(a) {
			return now
		}
	}
	wake := sim.WakeNever
	if t, ok := c.pipe.NextReadyAt(); ok && !c.Out.Full() {
		wake = t
	}
	if w, ok := c.Chaos.CorruptWake(now); ok && w < wake {
		wake = w // never sleep past the corruption drill's cycle
	}
	return max(wake, now)
}

// headStalled reports whether request a, the head of In, is one this cycle's
// processRequests would fail to advance for a reason only a fill or output
// space can lift: a load the miss memo still proves unplaceable, or a
// write-evict store behind a full MissOut. Anything it cannot tell cheaply —
// a first attempt, a write-back store — counts as work.
func (c *Ctrl) headStalled(a *mem.Access) bool {
	switch a.Kind {
	case mem.Load, mem.NonL1:
		absent, full := c.missKnown(a.Line)
		return full || absent && (c.mshr.len() >= c.P.MSHRs || c.MissOut.Full())
	default:
		return c.P.Policy == WriteEvict && c.MissOut.Full()
	}
}

// fillStalled reports whether processFills would leave fill a, the head of
// FillIn, where it is: an ACK needs room in Out, a line fill room for the
// writeback its install may produce.
func (c *Ctrl) fillStalled(a *mem.Access) bool {
	if a.Kind == mem.Store || a.Kind == mem.Atomic {
		return c.Out.Full()
	}
	return !c.canInstall()
}

// WakeSources implements sim.WakeSourcer: a sleeping controller is woken by
// a request or a fill, or by space in an output it was refused by; the
// latency pipe and the corruption drill are timers. The feeds add theirs.
func (c *Ctrl) WakeSources() []sim.PortRef {
	refs := []sim.PortRef{c.In.Ref(), c.FillIn.Ref(), c.Out.SpaceRef(), c.MissOut.SpaceRef()}
	return append(refs, c.Feeds.WakeSources()...)
}

// SkipIdle implements sim.IdleSkipper: the lastTick watermark (used by the
// invariant age audits) and, when the controller slept on a stalled head
// request, the MSHR stall each skipped tick would have counted.
func (c *Ctrl) SkipIdle(now sim.Cycle, n sim.Cycle) {
	c.lastTick = now
	c.Stat.MSHRStalls += n * c.tickStalls
}

// drainPipe moves matured replies into Out, respecting backpressure.
func (c *Ctrl) drainPipe(now sim.Cycle) {
	for !c.Out.Full() {
		a, ok := c.pipe.PopReady(now)
		if !ok {
			return
		}
		c.Out.Push(a)
	}
}

// processFills consumes replies from the lower level: installs fetched lines,
// wakes MSHR waiters, and forwards store ACKs upward.
func (c *Ctrl) processFills(now sim.Cycle) {
	for i := 0; i < c.P.Ports; i++ {
		a, ok := c.FillIn.Peek()
		if !ok {
			return
		}
		switch a.Kind {
		case mem.Store, mem.Atomic:
			// Write ACK from below: forward to the upper level.
			if c.Out.Full() {
				return
			}
			c.FillIn.Pop()
			c.Out.Push(a)
		case mem.Load, mem.NonL1:
			e := c.mshr.get(a.Line)
			if e == nil {
				// A fill for a line with no waiters (e.g. the entry was
				// satisfied by a racing path). Install and drop.
				if !c.canInstall() {
					return
				}
				c.install(a.Line, false)
				c.FillIn.Pop()
				c.P.Pool.PutAccess(a) // fill consumed here
				continue
			}
			// Need room to queue every waiter's reply and possibly a
			// writeback; check writeback space first.
			if !c.canInstall() {
				return
			}
			c.FillIn.Pop()
			dirty := false
			for _, w := range e.waiters {
				if w.Kind == mem.Store || w.Kind == mem.Atomic {
					dirty = true
				}
			}
			c.install(a.Line, dirty)
			for _, w := range e.waiters {
				if w.Core == PrefetchCore && int(w.Node) == c.ID {
					c.P.Pool.PutAccess(w) // own prefetch: fill installs silently
					continue
				}
				c.pipe.Push(w.Reply(), now+1)
			}
			c.mshr.remove(a.Line)
			c.P.Pool.PutAccess(a) // fill consumed; waiters carry the replies
		default:
			// Non-L1 / atomic replies never reach a Ctrl (bypassed by nodes).
			panic(fmt.Sprintf("cache %s: unexpected fill kind %v", c.P.Name, a.Kind))
		}
	}
}

// canInstall reports whether an install could proceed even if it produces a
// dirty writeback (write-back policy needs MissOut space).
func (c *Ctrl) canInstall() bool {
	if c.P.Policy != WriteBack {
		return true
	}
	return !c.MissOut.Full()
}

// install puts a line into the array, emitting an eviction/writeback.
func (c *Ctrl) install(line uint64, dirty bool) {
	if c.P.Perfect {
		return
	}
	victim, victimDirty, evicted := c.Arr.Install(line, dirty)
	c.tracker.OnInstall(c.ID, line)
	if evicted {
		c.Stat.Evictions++
		c.tracker.OnEvict(c.ID, victim)
		if victimDirty && c.P.Policy == WriteBack {
			c.Stat.Writebacks++
			wb := c.P.Pool.GetAccess()
			wb.Kind, wb.Line, wb.ReqBytes, wb.Core = mem.Store, victim, mem.LineBytes, -1
			c.MissOut.Push(wb) // canInstall guaranteed space
		}
	}
}

// processRequests serves up to Ports requests from In.
func (c *Ctrl) processRequests(now sim.Cycle) {
	served := 0
	stalls := c.Stat.MSHRStalls
	for served < c.P.Ports {
		a, ok := c.In.Peek()
		if !ok {
			break
		}
		var advanced bool
		switch a.Kind {
		case mem.Load, mem.NonL1:
			// NonL1 traffic is cacheable at the L2 (instruction/texture/
			// constant lines); L1/DC-L1 nodes bypass it before it reaches a
			// Ctrl, so seeing it here means "treat as a load".
			advanced = c.serveLoad(a, now)
		case mem.Store, mem.Atomic:
			// Atomics are resolved at the L2/MC (Section III); at that level
			// they behave as read-modify-writes, i.e. stores.
			advanced = c.serveStore(a, now)
		default:
			panic(fmt.Sprintf("cache %s: unknown access kind %v", c.P.Name, a.Kind))
		}
		if !advanced {
			break // head-of-line stall; retry next cycle
		}
		c.In.Pop()
		served++
	}
	c.tickStalls = c.Stat.MSHRStalls - stalls
	if served > 0 {
		c.Stat.BusyCycles++
		c.Stat.Accesses += int64(served)
	}
}

// missKnown reports what the memo still proves about line: absent from both
// the array and the MSHR file, or absent from the array with a full merge list.
func (c *Ctrl) missKnown(line uint64) (absent, full bool) {
	m := &c.miss
	if !m.ok || m.line != line || m.arrGen != c.Arr.gen || m.mshrGen != c.mshr.gen {
		return false, false
	}
	return !m.full, m.full
}

// noteMiss memoises the verdict a just-stalled load of line was given.
func (c *Ctrl) noteMiss(line uint64, full bool) {
	c.miss = missMemo{ok: true, full: full, line: line, arrGen: c.Arr.gen, mshrGen: c.mshr.gen}
}

func (c *Ctrl) serveLoad(a *mem.Access, now sim.Cycle) bool {
	absent, full := c.missKnown(a.Line)
	if full {
		c.Stat.MSHRStalls++
		return false
	}
	if c.P.Perfect || (!absent && c.Arr.Lookup(a.Line, true)) {
		c.Stat.Loads++
		c.Stat.LoadHits++
		c.pipe.Push(a.Reply(), now+c.P.HitLatency)
		return true
	}
	// Miss path: merge into an existing MSHR or allocate a new one.
	if !absent {
		if e := c.mshr.get(a.Line); e != nil {
			if len(e.waiters) >= c.P.MaxMerge {
				c.Stat.MSHRStalls++
				c.noteMiss(a.Line, true)
				return false
			}
			e.waiters = append(e.waiters, a)
			c.Stat.Loads++
			c.Stat.LoadMisses++
			c.Stat.MSHRMerges++
			c.noteReplication(a)
			return true
		}
	}
	if c.mshr.len() >= c.P.MSHRs || c.MissOut.Full() || c.Chaos.MSHRPinched(now) {
		c.Stat.MSHRStalls++
		c.noteMiss(a.Line, false)
		return false
	}
	e := c.mshr.insert(a.Line, now)
	e.waiters = append(e.waiters, a)
	fetch := c.P.Pool.GetAccess()
	*fetch = *a
	fetch.IsReply = false
	c.MissOut.Push(fetch)
	c.Stat.Loads++
	c.Stat.LoadMisses++
	c.noteReplication(a)
	c.prefetchAfter(a, now)
	return true
}

// PrefetchCore marks accesses generated by the prefetcher: their fills
// install normally but no reply is sent upward.
const PrefetchCore = -2

// prefetchAfter issues best-effort sequential prefetches following a demand
// miss. Prefetches never stall demand traffic: they are dropped when MSHRs
// or the miss queue are full.
func (c *Ctrl) prefetchAfter(a *mem.Access, now sim.Cycle) {
	stride := c.P.PrefetchStride
	if stride <= 0 {
		stride = 1
	}
	for i := 1; i <= c.P.PrefetchNext; i++ {
		line := a.Line + uint64(i*stride)
		if c.Arr.Contains(line) {
			continue
		}
		if c.mshr.get(line) != nil {
			continue
		}
		if c.mshr.len() >= c.P.MSHRs || c.MissOut.Full() || c.Chaos.MSHRPinched(now) {
			return
		}
		pf := c.P.Pool.GetAccess()
		pf.Kind, pf.Line, pf.ReqBytes = mem.Load, line, mem.LineBytes
		pf.Core, pf.Wave, pf.Node = PrefetchCore, -1, int32(c.ID)
		e := c.mshr.insert(line, now)
		e.waiters = append(e.waiters, pf)
		fetch := c.P.Pool.GetAccess()
		*fetch = *pf
		c.MissOut.Push(fetch)
		c.Stat.Prefetches++
	}
}

func (c *Ctrl) noteReplication(a *mem.Access) {
	if c.tracker.PresentElsewhere(c.ID, a.Line) {
		c.Stat.ReplicatedMisses++
	}
}

func (c *Ctrl) serveStore(a *mem.Access, now sim.Cycle) bool {
	switch c.P.Policy {
	case WriteEvict:
		// Write hit evicts the line; hit or miss, the write is forwarded to
		// the next level and the ACK will come back through FillIn.
		if c.MissOut.Full() {
			return false
		}
		c.Stat.Stores++
		if present, _ := c.Arr.Invalidate(a.Line); present {
			c.Stat.StoreHits++
			c.Stat.Evictions++
			c.tracker.OnEvict(c.ID, a.Line)
		}
		// Forward the store itself: the caller pops it from In on return, so
		// no copy is needed — the ACK comes back on this same Access.
		c.MissOut.Push(a)
		return true
	case WriteBack:
		if c.P.Perfect || c.Arr.MarkDirty(a.Line) {
			c.Stat.Stores++
			c.Stat.StoreHits++
			c.pipe.Push(a.Reply(), now+c.P.HitLatency)
			return true
		}
		// Write-allocate: fetch the line through the MSHR; the ACK is sent
		// when the fill arrives.
		if e := c.mshr.get(a.Line); e != nil {
			if len(e.waiters) >= c.P.MaxMerge {
				c.Stat.MSHRStalls++
				return false
			}
			e.waiters = append(e.waiters, a)
			c.Stat.Stores++
			c.Stat.MSHRMerges++
			return true
		}
		if c.mshr.len() >= c.P.MSHRs || c.MissOut.Full() || c.Chaos.MSHRPinched(now) {
			c.Stat.MSHRStalls++
			return false
		}
		e := c.mshr.insert(a.Line, now)
		e.waiters = append(e.waiters, a)
		fetch := c.P.Pool.GetAccess()
		*fetch = *a
		fetch.Kind = mem.Load
		fetch.IsReply = false
		c.MissOut.Push(fetch)
		c.Stat.Stores++
		return true
	default:
		panic("cache: unknown policy")
	}
}

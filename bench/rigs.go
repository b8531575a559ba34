package main

import (
	"time"

	"dcl1sim/internal/cache"
	"dcl1sim/internal/core"
	"dcl1sim/internal/dcl1"
	"dcl1sim/internal/dram"
	"dcl1sim/internal/gpu"
	"dcl1sim/internal/mem"
	"dcl1sim/internal/noc"
	"dcl1sim/internal/sim"
	wl "dcl1sim/internal/workload"
)

// A rig drives one component standalone through its public New/Tick/Inject
// API with fixed synthetic traffic, so its cost can be read without the rest
// of the machine. Every rig reports the p10 over sc.RigBatches batches of the
// batch's host nanoseconds per operation; one untimed batch warms it first.

// rigNs times batch (which returns how many operations it performed) and
// returns p10 ns per operation.
func rigNs(sc scale, batch func() int) float64 {
	batch()
	samples := make([]float64, 0, sc.RigBatches)
	for i := 0; i < sc.RigBatches; i++ {
		t0 := time.Now()
		n := batch()
		el := time.Since(t0)
		if n > 0 {
			samples = append(samples, float64(el.Nanoseconds())/float64(n))
		}
	}
	return p10(samples)
}

// rigTickDispatch: an engine ticking 256 trivial components; ns per
// component tick is the engine's dispatch cost.
func rigTickDispatch(sc scale) float64 {
	const comps = 256
	eng := sim.NewEngine()
	clk := eng.NewClock("rig", 1000)
	var ticks int64
	for i := 0; i < comps; i++ {
		clk.Register(sim.TickFunc(func(sim.Cycle) { ticks++ }))
	}
	edges := sim.Cycle(max(sc.RigCycles/comps, 8))
	return rigNs(sc, func() int {
		eng.RunUntil(clk, clk.Now()+edges)
		return int(edges) * comps
	})
}

// rigPortItem: 64 producer/consumer pairs joined by attached two-phase
// ports; ns per item is push -> barrier commit -> pop.
func rigPortItem(sc scale) float64 {
	const pairs = 64
	eng := sim.NewEngine()
	clk := eng.NewClock("rig", 1000)
	var popped int
	ports := make([]*sim.Port[int], pairs)
	for i := range ports {
		p := sim.NewPort[int](4)
		p.Attach(clk)
		ports[i] = p
		clk.Register(sim.TickFunc(func(now sim.Cycle) { p.Push(int(now)) }))
	}
	for _, p := range ports {
		p := p
		clk.Register(sim.TickFunc(func(sim.Cycle) {
			if _, ok := p.Pop(); ok {
				popped++
			}
		}))
	}
	edges := sim.Cycle(max(sc.RigCycles/pairs, 8))
	return rigNs(sc, func() int {
		before := popped
		eng.RunUntil(clk, clk.Now()+edges)
		return popped - before
	})
}

// sleeper is a component that is always asleep.
type sleeper struct{}

func (sleeper) Tick(sim.Cycle)                    {}
func (sleeper) NextWorkCycle(sim.Cycle) sim.Cycle { return sim.WakeNever }

// rigIdleEdge: 256 sleeping components, each behind an idle attached port,
// plus one awake ticker that keeps the engine from bulk fast-forwarding; ns
// per clock edge is what a mostly-asleep machine pays per edge (the sleeper
// scan and the port commits), the dominant cost on sim-idle.
func rigIdleEdge(sc scale) float64 {
	const comps = 256
	eng := sim.NewEngine()
	clk := eng.NewClock("rig", 1000)
	for i := 0; i < comps; i++ {
		clk.Register(sleeper{})
		sim.NewPort[int](4).Attach(clk)
	}
	var awake int64
	clk.Register(sim.TickFunc(func(sim.Cycle) { awake++ }))
	edges := sim.Cycle(max(sc.RigCycles/16, 8))
	return rigNs(sc, func() int {
		eng.RunUntil(clk, clk.Now()+edges)
		return int(edges)
	})
}

// rigCore: one core running the workload's wavefronts against a memory stub
// that accepts every request and replies on the next cycle; ns per Tick.
func rigCore(sc scale, app wl.Source, cfg gpu.Config) float64 {
	cfg = cfg.WithDefaults()
	pool := mem.NewPool()
	c := core.New(core.Params{MaxOutstanding: cfg.MaxOutstanding, OutCap: 8, InCap: 16, Pool: pool})
	for w := 0; w < app.WavesFor(0); w++ {
		c.AddWave(app.Program(cfg.Cores, 0, w, cfg.Sched, cfg.Seed))
	}
	var replies []*mem.Access
	now := sim.Cycle(0)
	return rigNs(sc, func() int {
		for i := 0; i < sc.RigCycles; i++ {
			c.Tick(now)
			now++
			for {
				a, ok := c.Out.Pop()
				if !ok {
					break
				}
				replies = append(replies, a.Reply())
			}
			n := 0
			for n < len(replies) && c.In.Push(replies[n]) {
				n++
			}
			replies = replies[:copy(replies, replies[n:])]
		}
		return sc.RigCycles
	})
}

// rigWorkloadNext: ns per Program.Next() of one wavefront of the app.
func rigWorkloadNext(sc scale, app wl.Source, cfg gpu.Config) float64 {
	cfg = cfg.WithDefaults()
	prog := app.Program(cfg.Cores, 0, 0, cfg.Sched, cfg.Seed)
	var sink core.OpKind
	ns := rigNs(sc, func() int {
		for i := 0; i < sc.RigCycles; i++ {
			sink += prog.Next().Kind
		}
		return sc.RigCycles
	})
	_ = sink
	return ns
}

// l1Params is the Table II L1: 32 KB, 4 ways, 128 B lines, 28-cycle hit.
func l1Params(pool *mem.Pool) cache.Params {
	return cache.Params{
		Name: "rig-l1", Sets: 32 * 1024 / mem.LineBytes / 4, Ways: 4, HitLatency: 28,
		MSHRs: 64, MaxMerge: 8, Policy: cache.WriteEvict, Pool: pool,
	}
}

// lineStream yields the rig address streams: resident cycles through half
// the cache's lines (every access after the first lap hits); streaming never
// repeats a line (every access misses).
type lineStream struct {
	next     uint64
	resident uint64 // 0 = streaming
}

func (s *lineStream) line() uint64 {
	l := s.next
	s.next++
	if s.resident > 0 {
		l %= s.resident
	}
	return l
}

// rigCacheCtrl: one cache.Ctrl fed one load per cycle, its misses filled on
// the next cycle by a stub lower level; ns per Tick on the hit path (resident
// stream) or the miss path (streaming).
func rigCacheCtrl(sc scale, resident bool) float64 {
	pool := mem.NewPool()
	p := l1Params(pool)
	c := cache.New(p, 0, nil)
	st := &lineStream{}
	if resident {
		st.resident = uint64(p.Sets * p.Ways / 2)
	}
	now := sim.Cycle(0)
	return rigNs(sc, func() int {
		for i := 0; i < sc.RigCycles; i++ {
			if !c.In.Full() {
				a := pool.GetAccess()
				a.Kind, a.Line, a.ReqBytes = mem.Load, st.line(), 32
				c.In.Push(a)
			}
			c.Tick(now)
			now++
			for !c.FillIn.Full() {
				m, ok := c.MissOut.Pop()
				if !ok {
					break
				}
				c.FillIn.Push(m.Reply())
			}
			for {
				r, ok := c.Out.Pop()
				if !ok {
					break
				}
				pool.PutAccess(r)
			}
		}
		return sc.RigCycles
	})
}

// rigDCL1Node: one DC-L1 node (bridge queues Q1..Q4 around a cache.Ctrl) on
// the resident stream, its Q3 misses answered into Q4; ns per Tick.
func rigDCL1Node(sc scale) float64 {
	pool := mem.NewPool()
	p := l1Params(pool)
	n := dcl1.New(dcl1.Params{Cache: p}, nil)
	st := &lineStream{resident: uint64(p.Sets * p.Ways / 2)}
	now := sim.Cycle(0)
	return rigNs(sc, func() int {
		for i := 0; i < sc.RigCycles; i++ {
			if !n.Q1.Full() {
				a := pool.GetAccess()
				a.Kind, a.Line, a.ReqBytes = mem.Load, st.line(), 32
				n.Q1.Push(a)
			}
			n.Tick(now)
			now++
			for !n.Q4.Full() {
				m, ok := n.Q3.Pop()
				if !ok {
					break
				}
				n.Q4.Push(m.Reply())
			}
			for {
				r, ok := n.Q2.Pop()
				if !ok {
					break
				}
				pool.PutAccess(r)
			}
		}
		return sc.RigCycles
	})
}

// rigCrossbar: the 80x40 NoC#1 request crossbar of Sh40 under saturating
// uniform traffic (every input offers a 2-flit packet every cycle to a
// uniformly drawn output, retrying while its VOQ is full); ns per flit moved.
func rigCrossbar(sc scale) float64 {
	const ins, outs = 80, 40
	pool := mem.NewPool()
	x := noc.New(noc.Params{Name: "rig-xbar", Ins: ins, Outs: outs})
	for o := 0; o < outs; o++ {
		x.SetEndpoint(o, noc.EndpointFunc(func(p *mem.Packet) bool {
			pool.PutPacket(p)
			return true
		}))
	}
	rng := sim.NewRNG(1)
	acc := &mem.Access{Kind: mem.Load}
	pending := make([]*mem.Packet, ins)
	now := sim.Cycle(0)
	cycles := max(sc.RigCycles/ins, 8)
	return rigNs(sc, func() int {
		before := x.Stat.FlitsMoved
		for i := 0; i < cycles; i++ {
			for in := 0; in < ins; in++ {
				if pending[in] == nil {
					p := pool.GetPacket()
					p.Acc, p.Src, p.Dst, p.Flits = acc, in, rng.Intn(outs), 2
					pending[in] = p
				}
				if x.Inject(pending[in]) {
					pending[in] = nil
				}
			}
			x.Tick(now)
			now++
		}
		return int(x.Stat.FlitsMoved - before)
	})
}

// rigDRAM: one GDDR5 channel kept full of loads to uniformly drawn lines;
// ns per request served.
func rigDRAM(sc scale) float64 {
	pool := mem.NewPool()
	ch := dram.New(dram.Params{Name: "rig-dram", Map: gpu.Config{}.WithDefaults().AddressMap()})
	rng := sim.NewRNG(1)
	now := sim.Cycle(0)
	return rigNs(sc, func() int {
		before := ch.Stat.Reads
		for i := 0; i < sc.RigCycles; i++ {
			for !ch.In.Full() {
				a := pool.GetAccess()
				a.Kind, a.Line, a.ReqBytes = mem.Load, rng.Uint64()%(1<<24), mem.LineBytes
				ch.In.Push(a)
			}
			ch.Tick(now)
			now++
			for {
				r, ok := ch.Out.Pop()
				if !ok {
					break
				}
				pool.PutAccess(r)
			}
		}
		return int(ch.Stat.Reads - before)
	})
}

// rigPool: ns per GetAccess+PutAccess pair on the serial pool.
func rigPool(sc scale) float64 {
	pool := mem.NewPool()
	return rigNs(sc, func() int {
		for i := 0; i < sc.RigCycles; i++ {
			pool.PutAccess(pool.GetAccess())
		}
		return sc.RigCycles
	})
}

// componentRigs runs every standalone rig. app and cfg select the wavefront
// programs of the core and workload rigs.
func componentRigs(sc scale, app wl.Source, cfg gpu.Config) map[string]float64 {
	return map[string]float64{
		"sim.tick_dispatch_ns": rigTickDispatch(sc),
		"sim.port_item_ns":     rigPortItem(sc),
		"sim.idle_edge_ns":     rigIdleEdge(sc),
		"core.tick_ns":         rigCore(sc, app, cfg),
		"workload.next_ns":     rigWorkloadNext(sc, app, cfg),
		"cache.tick_ns_hit":    rigCacheCtrl(sc, true),
		"cache.tick_ns_miss":   rigCacheCtrl(sc, false),
		"dcl1.node_tick_ns":    rigDCL1Node(sc),
		"noc.xbar_ns_per_flit": rigCrossbar(sc),
		"dram.ns_per_request":  rigDRAM(sc),
		"mem.pool_getput_ns":   rigPool(sc),
	}
}

package gpu

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dcl1sim/internal/cache"
	"dcl1sim/internal/core"
	"dcl1sim/internal/dcl1"
	"dcl1sim/internal/dram"
	"dcl1sim/internal/health"
	"dcl1sim/internal/mem"
	"dcl1sim/internal/metrics"
	"dcl1sim/internal/noc"
	"dcl1sim/internal/power"
	"dcl1sim/internal/sim"
	"dcl1sim/internal/workload"
)

// A feed refused by its host crossbar for want of a credit skips the
// crossbar's ticks until a credit comes back, at the barrier of the edge the
// crossbar granted a VOQ's head on, and injects on the next
// edge — the edge an always-ticking engine would. Output 0's sink takes one
// access every 3 cycles from a one-entry port and its source offers one a
// cycle, so its two-deep VOQ is full nearly always and empties at once if the
// feed is late. The second source wants output 1, drained every 40 cycles and
// fed in bursts of four: the feed is refused for both outputs at once (either
// credit must revive it, and output 0's comes first). In the second scene
// nothing is ever refused — deep VOQs, sinks that keep up — and the feed
// moves one access a cycle: stopped by its rate with more to move, it must
// keep trying. In the third the sources are not attached, so no commit can
// tell the crossbar's feeds one has filled: the feed must stay live and look
// at its sources on every tick. Every scene runs on a 1x2 crossbar and on a
// 3x1 mesh injecting at its middle node, whose one local-input credit the
// two outputs share: both networks admit through the same ingress. Output 0's
// accesses wait behind output 1's in that shared buffer, so the window is
// long enough for the mesh to deliver all 660 as well.
func TestFeedBlockedOnCreditsRetriesAfterApplyCredits(t *testing.T) {
	const cycles = 6000
	type network interface {
		packetNet
		sim.Ticker
		Attach(*sim.Clock)
		SetEndpoint(int, noc.Endpoint)
		Pending() int
		CheckInvariants() []health.Violation
	}
	// A network, the feeds it hosts, its injecting node and output o's node.
	type build func(depth int) (network, *sim.Feeds[*mem.Access], int, [2]int)
	crossbar := func(depth int) (network, *sim.Feeds[*mem.Access], int, [2]int) {
		x := noc.New(noc.Params{Name: "x", Ins: 1, Outs: 2, VOQDepth: depth})
		return x, &x.Feeds, 0, [2]int{0, 1}
	}
	mesh := func(depth int) (network, *sim.Feeds[*mem.Access], int, [2]int) {
		m := noc.NewMesh(noc.MeshParams{Name: "m", W: 3, H: 1, QueueDepth: depth})
		return m, &m.Feeds, 1, [2]int{0, 2}
	}
	type scene struct {
		name      string
		rate, voq int
		periods   [2]sim.Cycle // sink o takes one access every periods[o] cycles
		unbound   bool
	}
	backPressure := scene{"back-pressure", feedRate, 2, [2]sim.Cycle{3, 40}, false}
	rateBound := scene{"rate-bound", 1, 8, [2]sim.Cycle{1, 1}, false}
	unbound := scene{"unbound", feedRate, 2, [2]sim.Cycle{3, 40}, true}
	run := func(net string, mk build, sc scene, fast bool) ([]string, int) {
		s := &System{} // no pool: inject and sink allocate
		e := sim.NewEngine()
		e.SetFastPath(fast)
		clk := e.NewClock("noc", 1000)
		var srcs, dsts [2]*sim.Port[*mem.Access]
		for o := range dsts {
			srcs[o] = sim.NewPort[*mem.Access](4)
			if !sc.unbound {
				srcs[o].Attach(clk)
			}
			dsts[o] = sim.NewPort[*mem.Access](1)
			dsts[o].Attach(clk)
		}
		// Source o feeds output o: one access a cycle for output 0 while
		// there is room, four at once every 100 cycles for output 1.
		left := [2]int{600, 60}
		clk.Register(sim.TickFunc(func(now sim.Cycle) {
			n := [2]int{1, 0}
			if now%100 == 0 {
				n[1] = 4
			}
			for o := range srcs {
				for ; n[o] > 0 && left[o] > 0 && srcs[o].Push(&mem.Access{Line: uint64(o), ID: uint64(left[o])}); n[o]-- {
					left[o]--
				}
			}
		}))
		x, feeds, src, dst := mk(sc.voq)
		clk.Register(x)
		x.Attach(clk)
		for o := range dsts {
			x.SetEndpoint(dst[o], s.sink(dsts[o]))
		}
		// tried counts the edges the feed tried on: what a pump's ticks were.
		tried, last := 0, sim.Cycle(-1)
		feeds.Add(&sim.Feed[*mem.Access]{
			Srcs: srcs[:], Rate: sc.rate, Credits: x.CreditsReturned,
			Try: func(a *mem.Access) bool {
				if now := clk.Now(); now != last {
					tried, last = tried+1, now
				}
				return s.inject(x, a, src, dst[a.Line], 2)
			},
		})
		var log []string
		clk.Register(sim.TickFunc(func(now sim.Cycle) {
			for o, period := range sc.periods {
				if now%period == 0 {
					if a, ok := dsts[o].Pop(); ok {
						log = append(log, fmt.Sprintf("out%d:%d@%d", o, a.ID, now))
					}
				}
			}
		}))
		e.RunUntil(clk, cycles)
		if left != [2]int{} || x.Pending() != 0 {
			t.Fatalf("%s %s fast=%v: %v accesses unfed, %d packets left in the network", net, sc.name, fast, left, x.Pending())
		}
		if v := x.CheckInvariants(); len(v) > 0 {
			t.Fatalf("%s %s fast=%v: %v", net, sc.name, fast, v)
		}
		return log, tried
	}
	for _, nw := range []struct {
		name string
		mk   build
	}{{"crossbar", crossbar}, {"mesh", mesh}} {
		for _, sc := range []scene{backPressure, rateBound, unbound} {
			name := nw.name + " " + sc.name
			want, _ := run(nw.name, nw.mk, sc, false)
			if len(want) != 660 {
				t.Fatalf("%s: reference run delivered %d accesses", name, len(want))
			}
			got, tried := run(nw.name, nw.mk, sc, true)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: deliveries differ from the always-ticking run:\n got %v\nwant %v", name, got, want)
			}
			t.Logf("%s: 660 accesses, the feed tried on %d edges", name, tried)
			// One edge per injection and per refusal after a credit came back.
			if tried > 3*660 && !sc.unbound {
				t.Errorf("%s: feed tried on %d edges for 660 accesses over %d cycles: it retries through the back-pressure",
					name, tried, cycles)
			}
		}
	}
}

// The reason this design exists, pinned where it shows: C-BLK on Baseline is
// one long back-pressure chain (DRAM, L2 MSHRs, L1 MSHRs, core LSQ), and on
// the core clock — cores and the L1 nodes hosting the feeds between them —
// nearly every component is stalled on most edges. Ticked on every edge they
// stall on, the core clock's 16 cores, 16 nodes and (then) 32 pumps made 46
// ticks an edge on this 16-core run; with stalled components out of the
// active set they made 11.8, and with the pumps folded into the nodes as
// feeds they make 10.7 (an always-ticking engine: 32). The bound leaves room
// for the model to move, none for a change that quietly re-awakes them.
func TestStalledComponentsLeaveTheActiveSet(t *testing.T) {
	app, _ := workload.ByName("C-BLK")
	s := NewSystem(quiesceCfg(), Design{Kind: Baseline}, app)
	s.Run()
	t.Logf("\n%s", walkTable(s.Eng.WalkStats()))
	w := s.Eng.WalkStats()[0]
	if w.Clock != "core" || w.Components != 2*16 || w.Edges != 4200 {
		t.Fatalf("first clock: %+v", w)
	}
	const bound = 14.0
	if per := float64(w.Ticks) / float64(w.Edges); per > bound {
		t.Errorf("core clock: %d ticks over %d edges = %.2f per edge, bound %.1f: stalled components are being ticked",
			w.Ticks, w.Edges, per, bound)
	}
	if w.SpaceWakes == 0 || w.Polls > w.Ticks {
		t.Errorf("core clock: %d space wakes, %d polls for %d ticks: back-pressure is not what wakes the chain", w.SpaceWakes, w.Polls, w.Ticks)
	}
}

// Every component a machine registers is a model component — a core, an
// L1/DC-L1 node, a crossbar, a mesh, an L2 slice or a DRAM channel: the glue
// between two of them is a feed its host runs, never a component of its own.
// And every one answers for itself — its work, what it holds, its statistics,
// its invariants, its dump — which is all the watchdog, the audits and the
// warm-up reset ask of it: besides the model components only the metrics
// collector ticks, and the monitor holds one probe per clock with a model
// component on it. Each registers its own series under the one name its dump
// and its audit give it, no two share a name, and each module's power zones
// meter exactly that module's series of the metered families.
func TestNoGlueComponents(t *testing.T) {
	ds := map[string]Design{"+M2": {Kind: Clustered, DCL1s: 4, Clusters: 2, Modules: 2}}
	for _, d := range quiesceDesigns() {
		ds[d.Name()] = d
	}
	for name, d := range ds {
		s := NewSystem(quiesceCfg(), d, sharingApp())
		for _, c := range s.Eng.Clocks() {
			for i := 0; i < c.Components(); i++ {
				switch comp := c.Component(i).(type) {
				case *core.Core, *dcl1.Node, *noc.Crossbar, *noc.Mesh, *cache.Ctrl, *dram.Channel:
				default:
					t.Errorf("%s: %s[%d] is a %T, not a model component", name, c.Name(), i, comp)
				}
			}
		}
	}
	for _, g := range goldenDesigns() {
		for _, mods := range []int{1, 2} {
			d := g.d
			d.Modules = mods
			s := NewSystem(testCfg(), d, sharingApp())
			if err := s.InstallTelemetry(metrics.Options{Every: 64}, nil); err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, clk := range s.Eng.Clocks() {
				n := 0
				for i := 0; i < clk.Components(); i++ {
					switch comp := clk.Component(i).(type) {
					case *metrics.Collector:
					case component:
						n++
					default:
						t.Errorf("%s x%d: %s[%d] is a %T, which does not answer for itself", g.name, mods, clk.Name(), i, comp)
					}
				}
				if n > 0 {
					want = append(want, clk.Name())
				}
			}
			var got []string
			for _, p := range s.NewMonitor().BuildDump("inventory", "core", 0, nil).Probes {
				got = append(got, p.Name)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s x%d: monitor probes %v, want one per clock with a component: %v", g.name, mods, got, want)
			}
			checkComponentNames(t, fmt.Sprintf("%s x%d", g.name, mods), s)
			s.Eng.RunUntil(s.CoreClk, 1500) // counters worth telling apart
			checkZoneTerms(t, fmt.Sprintf("%s x%d", g.name, mods), s)
		}
	}
}

// checkComponentNames: every component registers at least one series, all
// under the name of its dump; a broken queue's audit names it the same; and
// no two components share a name.
func checkComponentNames(t *testing.T, label string, s *System) {
	t.Helper()
	seen := map[string]bool{}
	for _, clk := range s.Eng.Clocks() {
		for _, c := range components(clk) {
			dump, _ := c.DumpHealth()
			name := dump.Name
			if seen[name] {
				t.Errorf("%s: two components are named %q", label, name)
			}
			seen[name] = true
			r := metrics.NewRegistry()
			c.RegisterMetrics(r)
			if r.Len() == 0 {
				t.Errorf("%s: %s registers no series", label, name)
			}
			for _, ser := range r.Series() {
				if ser.Comp != name {
					t.Errorf("%s: %s registers %s under %q", label, name, ser.Name, ser.Comp)
				}
			}
			var pushes *int64 // a queue whose books the audit checks
			switch c := c.(type) {
			case *core.Core:
				pushes = &c.Out.PushCount
			case *dcl1.Node:
				pushes = &c.Ctrl.In.PushCount
			case *cache.Ctrl:
				pushes = &c.In.PushCount
			case *dram.Channel:
				pushes = &c.In.PushCount
			}
			if pushes == nil {
				continue
			}
			*pushes++
			vs := c.CheckInvariants()
			*pushes--
			if len(vs) == 0 || vs[0].Component != name {
				t.Errorf("%s: the audit of %s reports %+v", label, name, vs)
			}
		}
	}
}

// checkZoneTerms: each module's gpu and memory zones hold one term per series
// of their families that the module's own components registered, in
// registration order, and its module zone both; no link series and no other
// module's.
func checkZoneTerms(t *testing.T, label string, s *System) {
	t.Helper()
	metered := map[string]struct {
		zone   string
		energy float64
	}{
		"core_instructions_total": {power.ZoneGPU, power.EnergyPerInstruction},
		"l1_accesses_total":       {power.ZoneGPU, power.EnergyPerL1Access},
		"noc1_flits_total":        {power.ZoneGPU, power.EnergyPerNoc1Flit},
		"l2_accesses_total":       {power.ZoneMemory, power.EnergyPerL2Access},
		"dram_reads_total":        {power.ZoneMemory, power.EnergyPerDramAccess},
		"dram_writes_total":       {power.ZoneMemory, power.EnergyPerDramAccess},
		"noc2_flits_total":        {power.ZoneMemory, power.EnergyPerNoc2Flit},
	}
	type term struct {
		energy float64
		count  int64
	}
	for _, mod := range s.Mods {
		want := map[string][]term{}
		for _, ser := range s.Reg.Series() {
			m, ok := metered[ser.Name]
			if ok && strings.HasPrefix(ser.Comp, mod.prefix) {
				want[m.zone] = append(want[m.zone], term{m.energy, ser.Int()})
			}
		}
		want[power.ZoneModule] = append(append([]term{}, want[power.ZoneGPU]...), want[power.ZoneMemory]...)
		for _, z := range mod.buildZones() {
			var got []term
			for _, zt := range z.Terms {
				got = append(got, term{zt.Energy, zt.Count()})
			}
			if !reflect.DeepEqual(got, want[z.Name]) {
				t.Errorf("%s: module %q zone %s meters %v, want %v", label, mod.prefix, z.Name, got, want[z.Name])
			}
		}
	}
}

// walkTable renders WalkStats as the markdown table of DESIGN.md §20.
func walkTable(ws []sim.WalkStats) string {
	out := "| clock | components | edges | ticks | polls | sleeps | timer wakes | data wakes | space wakes |\n|---|---|---|---|---|---|---|---|---|\n"
	for _, w := range ws {
		out += fmt.Sprintf("| %s | %d | %d | %d | %d | %d | %d | %d | %d |\n",
			w.Clock, w.Components, w.Edges, w.Ticks, w.Polls, w.Sleeps, w.TimerWakes, w.DataWakes, w.SpaceWakes)
	}
	return out
}

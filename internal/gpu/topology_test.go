package gpu

import (
	"math"
	"reflect"
	"testing"

	"dcl1sim/internal/power"
)

// TestTopologyMatchesBuild is the wiring audit: for every design kind, at one
// and two modules, what NewSystem built is what the stage table says — every
// crossbar's shape, flit width and name, each stage's count and clock — and
// the power model's spec is the same table. Running the first edges binds
// every feed's Space ports to the component hosting it, which panics if a
// port commits on another clock than the host ticks on (sim.Engine's bind):
// every feed runs on the clock its pushes commit on.
func TestTopologyMatchesBuild(t *testing.T) {
	cfg := testCfg()
	for name, d := range designs() {
		for _, mods := range []int{1, 2} {
			d.Modules = mods
			topo, err := DesignTopology(cfg, d)
			if err != nil {
				t.Fatalf("%s x%d: %v", name, mods, err)
			}
			s := NewSystem(cfg, d, sharingApp())
			s.Eng.RunUntil(s.CoreClk, 8)

			onChip := topo.Stages
			if mods > 1 {
				link := onChip[len(onChip)-1]
				onChip = onChip[:len(onChip)-1]
				if link.Net != NetLink || link.Ins != mods || link.Outs != mods {
					t.Errorf("%s x%d: last row %+v is not a %dx%d link", name, mods, link, mods, mods)
				}
				checkStage(t, d.Kind, s, s.Link, link, "")
			} else if s.Link != nil {
				t.Errorf("%s: one module built a link stage", name)
			}
			for _, mod := range s.Mods {
				if len(mod.Stages) != len(onChip) {
					t.Fatalf("%s x%d: module holds %d stages, table has %d on-chip rows",
						name, mods, len(mod.Stages), len(onChip))
				}
				for i, b := range mod.Stages {
					checkStage(t, d.Kind, s, b, onChip[i], mod.prefix)
				}
			}

			spec := DesignNoCSpec(cfg, d)
			if len(spec.Xbars) != len(onChip) {
				t.Fatalf("%s x%d: spec has %d groups, table %d on-chip rows", name, mods, len(spec.Xbars), len(onChip))
			}
			for i, x := range spec.Xbars {
				row := onChip[i]
				want := power.XbarSpec{In: row.Ins, Out: row.Outs, Count: row.Count,
					FlitBytes: row.FlitBytes, FreqMHz: float64(row.MHz), LinkMM: row.LinkMM}
				if x != want {
					t.Errorf("%s x%d: spec group %d = %+v, table row gives %+v", name, mods, i, x, want)
				}
			}
		}
	}
}

// checkStage compares one built stage of a design of the given kind against
// its table row.
func checkStage(t *testing.T, kind DesignKind, s *System, b *BuiltStage, row Stage, prefix string) {
	t.Helper()
	if b.Stage != row {
		t.Errorf("built stage carries row %+v, table has %+v", b.Stage, row)
	}
	if got := s.clock(row.Net).FreqMHz(); got != row.MHz {
		t.Errorf("stage %s: %s clock runs at %d MHz, row says %d", row.Name, row.Net, got, row.MHz)
	}
	switch {
	case kind == SingleL1 && row.Net != NetLink:
		// The declared exception: SingleL1's rows cost out a network the
		// contention-free study does not build.
		if len(b.Req)+len(b.Rep) != 0 || b.MeshReq != nil {
			t.Errorf("ideal stage %s built a network", row.Name)
		}
	case kind == MeshBase && row.Net != NetLink:
		if len(b.Req)+len(b.Rep) != 0 || b.MeshReq == nil || b.MeshRep == nil {
			t.Fatalf("router stage %s is not one mesh pair", row.Name)
		}
		for _, m := range []int{b.MeshReq.Nodes(), b.MeshRep.Nodes()} {
			if m < row.Count {
				t.Errorf("mesh of %d routers cannot seat the row's %d endpoints", m, row.Count)
			}
		}
	default:
		if len(b.Req) != row.Count || len(b.Rep) != row.Count || b.MeshReq != nil {
			t.Fatalf("stage %s built %d+%d crossbars, row says %d each", row.Name, len(b.Req), len(b.Rep), row.Count)
		}
		for i := 0; i < row.Count; i++ {
			req, rep := b.Req[i].P, b.Rep[i].P
			if req.Ins != row.Ins || req.Outs != row.Outs || rep.Ins != row.Outs || rep.Outs != row.Ins {
				t.Errorf("stage %s crossbar %d: req %dx%d rep %dx%d, row says %dx%d",
					row.Name, i, req.Ins, req.Outs, rep.Ins, rep.Outs, row.Ins, row.Outs)
			}
			if req.LinkBytes != row.FlitBytes || rep.LinkBytes != row.FlitBytes {
				t.Errorf("stage %s crossbar %d: flit width %d/%d, row says %d",
					row.Name, i, req.LinkBytes, rep.LinkBytes, row.FlitBytes)
			}
			if want := prefix + row.xbarName("req", i); req.Name != want {
				t.Errorf("stage %s crossbar %d is named %q, want %q", row.Name, i, req.Name, want)
			}
		}
	}
}

// TestDesignNoCSpecProjection pins the power model's view of the paper's
// machine with literal expectations (read off the tree before the stage table
// existed): a change to a row of the table shows here.
func TestDesignNoCSpecProjection(t *testing.T) {
	const short, long = power.ShortLinkMM, power.LongLinkMM
	c10 := func(noc1MHz float64) []power.XbarSpec {
		return []power.XbarSpec{
			{In: 8, Out: 4, Count: 10, FlitBytes: 32, FreqMHz: noc1MHz, LinkMM: short},
			{In: 10, Out: 8, Count: 4, FlitBytes: 32, FreqMHz: 700, LinkMM: long},
		}
	}
	cases := []struct {
		name string
		d    Design
		want []power.XbarSpec
	}{
		{"Baseline", Design{Kind: Baseline}, []power.XbarSpec{
			{In: 80, Out: 32, Count: 1, FlitBytes: 32, FreqMHz: 700, LinkMM: long}}},
		{"Pr40", Design{Kind: Private, DCL1s: 40}, []power.XbarSpec{
			{In: 2, Out: 1, Count: 40, FlitBytes: 32, FreqMHz: 700, LinkMM: short},
			{In: 40, Out: 32, Count: 1, FlitBytes: 32, FreqMHz: 700, LinkMM: long}}},
		{"Sh40", Design{Kind: Shared, DCL1s: 40}, []power.XbarSpec{
			{In: 80, Out: 40, Count: 1, FlitBytes: 32, FreqMHz: 700, LinkMM: long},
			{In: 40, Out: 32, Count: 1, FlitBytes: 32, FreqMHz: 700, LinkMM: long}}},
		{"Sh40+C10", Design{Kind: Clustered, DCL1s: 40, Clusters: 10}, c10(700)},
		{"Sh40+C10+Boost", Design{Kind: Clustered, DCL1s: 40, Clusters: 10, Boost1: true}, c10(1400)},
		// The link is not part of the on-chip NoC the power model describes.
		{"Sh40+C10+M4", Design{Kind: Clustered, DCL1s: 40, Clusters: 10, Modules: 4}, c10(700)},
		{"CDXBar", Design{Kind: CDXBar}, c10(700)},
		{"MeshBase", Design{Kind: MeshBase}, []power.XbarSpec{
			{In: 5, Out: 5, Count: 112, FlitBytes: 32, FreqMHz: 700, LinkMM: short}}},
	}
	for _, c := range cases {
		if got := DesignNoCSpec(Config{}, c.d).Xbars; !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: Xbars = %+v, want %+v", c.name, got, c.want)
		}
	}
	// A design that does not validate has no spec, not a floor-divided one.
	if got := DesignNoCSpec(Config{}, Design{Kind: Private, DCL1s: 30}); len(got.Xbars) != 0 {
		t.Errorf("Pr30 on 80 cores: spec %+v, want none", got)
	}
}

// The calibration targets from the paper, with generous tolerances — the
// model only needs to land in the reported neighbourhood — checked on the
// shapes the simulator builds for the paper's machine.
func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.3f, want %.3f ± %.2f", name, got, want, tol)
	}
}

func paperNoC(d Design) power.NoCSpec { return DesignNoCSpec(Config{}, d) }

func TestNoCAreaMatchesPaperDeltas(t *testing.T) {
	base := paperNoC(Design{Kind: Baseline}).Area()
	area := func(d Design) float64 { return paperNoC(d).Area() / base }
	// Fig 6: Pr40 −28%, Pr20 −54%, Pr10 −67%; Pr80 insignificant overhead.
	within(t, "Pr80 area", area(Design{Kind: Private, DCL1s: 80}), 1.00, 0.06)
	within(t, "Pr40 area", area(Design{Kind: Private, DCL1s: 40}), 0.72, 0.08)
	within(t, "Pr20 area", area(Design{Kind: Private, DCL1s: 20}), 0.46, 0.08)
	within(t, "Pr10 area", area(Design{Kind: Private, DCL1s: 10}), 0.33, 0.08)
	// Section V-B: Sh40 +69%.
	within(t, "Sh40 area", area(Design{Kind: Shared, DCL1s: 40}), 1.69, 0.10)
	// Fig 12: C5 −45%, C10 −50%, C20 −45%.
	within(t, "C5 area", area(Design{Kind: Clustered, DCL1s: 40, Clusters: 5}), 0.55, 0.08)
	within(t, "C10 area", area(Design{Kind: Clustered, DCL1s: 40, Clusters: 10}), 0.50, 0.08)
	within(t, "C20 area", area(Design{Kind: Clustered, DCL1s: 40, Clusters: 20}), 0.55, 0.08)
}

func TestNoCStaticPowerMatchesPaperDeltas(t *testing.T) {
	base := paperNoC(Design{Kind: Baseline}).StaticPower()
	static := func(d Design) float64 { return paperNoC(d).StaticPower() / base }
	// Fig 6: Pr40 −4%; Pr20/Pr10 bigger reductions.
	within(t, "Pr40 static", static(Design{Kind: Private, DCL1s: 40}), 0.96, 0.08)
	pr20 := static(Design{Kind: Private, DCL1s: 20})
	pr10 := static(Design{Kind: Private, DCL1s: 10})
	if !(pr10 < pr20 && pr20 < 0.96) {
		t.Errorf("static power must fall with aggregation: pr20=%.3f pr10=%.3f", pr20, pr10)
	}
	// Section V-B: Sh40 +57%.
	within(t, "Sh40 static", static(Design{Kind: Shared, DCL1s: 40}), 1.57, 0.20)
	// Fig 12: C5 −15%, C10 −16%, C20 −14%.
	within(t, "C5 static", static(Design{Kind: Clustered, DCL1s: 40, Clusters: 5}), 0.85, 0.06)
	within(t, "C10 static", static(Design{Kind: Clustered, DCL1s: 40, Clusters: 10}), 0.84, 0.06)
	within(t, "C20 static", static(Design{Kind: Clustered, DCL1s: 40, Clusters: 20}), 0.86, 0.06)
}

func TestCDXBarMatchesClusteredInventory(t *testing.T) {
	// CDXBar with 10 groups and mid=4 uses the same crossbars as Sh40+C10,
	// hence near-identical area ("similar NoC area and power savings").
	cd := paperNoC(Design{Kind: CDXBar, CDXGroups: 10, CDXMid: 4})
	cl := paperNoC(Design{Kind: Clustered, DCL1s: 40, Clusters: 10})
	if !reflect.DeepEqual(cd.Xbars, cl.Xbars) {
		t.Errorf("CDXBar inventory %+v != Sh40+C10 inventory %+v", cd.Xbars, cl.Xbars)
	}
	if math.Abs(cd.Area()-cl.Area()) > 1e-9 {
		t.Errorf("CDXBar area %.1f != clustered area %.1f", cd.Area(), cl.Area())
	}
}

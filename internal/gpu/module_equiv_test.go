package gpu

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dcl1sim/internal/chaos"
	"dcl1sim/internal/metrics"
)

// The golden files pin the Results JSON and the metrics stream of every
// design kind in both tick modes, one module under testdata/golden_single and
// several under testdata/golden_multi, so any drift fails here. They belong to
// one gpu.ModelVersion (TestGoldenDigestNamesModel): a change that moves them
// on purpose regenerates them (DCL1_UPDATE_GOLDEN=1 go test -run
// 'Golden|DeterminismMatrix') and bumps the version.

const updateGoldenEnv = "DCL1_UPDATE_GOLDEN"

// goldenVariant is one execution mode of the identical simulation.
type goldenVariant struct {
	key    string
	legacy bool
}

func goldenVariants() []goldenVariant {
	return []goldenVariant{
		{key: "serial"},
		{key: "serial-legacy", legacy: true},
	}
}

// goldenCase is one pinned simulation: a design on the small test machine,
// optionally under fault injection. Its name is the golden file stem.
type goldenCase struct {
	name  string
	d     Design
	chaos *chaos.Spec
}

// goldenDesigns covers all seven design kinds on the small test machine.
func goldenDesigns() []goldenCase {
	return []goldenCase{
		{name: "baseline", d: Design{Kind: Baseline}},
		{name: "pr4", d: Design{Kind: Private, DCL1s: 4}},
		{name: "sh4", d: Design{Kind: Shared, DCL1s: 4}},
		{name: "sh4c2", d: Design{Kind: Clustered, DCL1s: 4, Clusters: 2}},
		{name: "cdxbar", d: Design{Kind: CDXBar, CDXGroups: 4, CDXMid: 2}},
		{name: "single-l1", d: Design{Kind: SingleL1}},
		{name: "mesh", d: Design{Kind: MeshBase}},
	}
}

// runGolden executes one variant and returns (Results JSON, metrics NDJSON).
func runGolden(t *testing.T, c goldenCase, v goldenVariant) ([]byte, []byte) {
	t.Helper()
	cfg := testCfg()
	var stream bytes.Buffer
	opts := HealthOptions{
		LegacyTick: v.legacy,
		Chaos:      c.chaos,
		Metrics:    &metrics.Options{Every: 2048, Sink: metrics.NewNDJSONSink(&stream)},
	}
	r, err := RunChecked(cfg, c.d, sharingApp(), opts)
	if err != nil {
		t.Fatalf("%s/%s: %v", c.name, v.key, err)
	}
	rj, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		t.Fatalf("marshal results: %v", err)
	}
	rj = append(rj, '\n')
	return rj, stream.Bytes()
}

// checkGolden runs every case in every execution mode and compares each
// run's Results JSON and metrics stream with the case's files under
// testdata/<dir>. With DCL1_UPDATE_GOLDEN set, a serial run writes the files
// first.
func checkGolden(t *testing.T, dir string, cases []goldenCase) {
	update := os.Getenv(updateGoldenEnv) != ""
	dir = filepath.Join("testdata", dir)
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			resPath := filepath.Join(dir, c.name+".json")
			ndPath := filepath.Join(dir, c.name+".ndjson")
			if update {
				res, stream := runGolden(t, c, goldenVariants()[0])
				if err := os.WriteFile(resPath, res, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(ndPath, stream, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			wantRes, err := os.ReadFile(resPath)
			if err != nil {
				t.Fatalf("missing golden (generate with %s=1): %v", updateGoldenEnv, err)
			}
			wantStream, err := os.ReadFile(ndPath)
			if err != nil {
				t.Fatalf("missing golden stream: %v", err)
			}
			for _, v := range goldenVariants() {
				res, stream := runGolden(t, c, v)
				if !bytes.Equal(res, wantRes) {
					t.Errorf("%s: Results JSON drifted from golden %s:\n got: %s\nwant: %s",
						v.key, resPath, res, wantRes)
				}
				if !bytes.Equal(stream, wantStream) {
					t.Errorf("%s: metrics stream drifted from golden %s (%d vs %d bytes)",
						v.key, ndPath, len(stream), len(wantStream))
				}
			}
		})
	}
}

// TestSingleModuleGolden pins every single-module run — in both tick modes —
// to its golden Results and metrics stream, across all seven design kinds.
func TestSingleModuleGolden(t *testing.T) {
	checkGolden(t, "golden_single", goldenDesigns())
}

// TestModulesOneMatchesSingle pins the dispatch contract: an explicit
// Modules=1 design runs the exact single-module build — Results and the
// metrics stream are byte-identical to the same design with Modules unset,
// the canonical name carries no module suffix, and no component name grows a
// module prefix.
func TestModulesOneMatchesSingle(t *testing.T) {
	for _, gd := range goldenDesigns() {
		gd := gd
		t.Run(gd.name, func(t *testing.T) {
			t.Parallel()
			res0, stream0 := runGolden(t, gd, goldenVariant{key: "m0"})
			gd.d.Modules = 1
			res1, stream1 := runGolden(t, gd, goldenVariant{key: "m1"})
			if !bytes.Equal(res0, res1) {
				t.Errorf("Modules=1 Results differ from unset:\n got: %s\nwant: %s", res1, res0)
			}
			if !bytes.Equal(stream0, stream1) {
				t.Errorf("Modules=1 metrics stream differs from unset (%d vs %d bytes)",
					len(stream1), len(stream0))
			}
			if bytes.Contains(stream1, []byte(`"m0.`)) || bytes.Contains(stream1, []byte(`"m1.`)) {
				t.Errorf("single-module stream carries a module component prefix")
			}
		})
	}
}

// machineShape summarizes a built machine's object graph: module count,
// clocks with their component counts, every series id, every probe name.
type machineShape struct {
	Mods   int
	Clocks []string
	Series []string
	Probes []string
}

func shapeOf(s *System) machineShape {
	sh := machineShape{Mods: len(s.Mods)}
	for _, c := range s.Eng.Clocks() {
		sh.Clocks = append(sh.Clocks, fmt.Sprintf("%s@%d:%d", c.Name(), c.FreqMHz(), c.Components()))
	}
	for _, ser := range s.Reg.Series() {
		sh.Series = append(sh.Series, ser.Comp+"/"+ser.Domain+"/"+ser.Name)
	}
	for _, p := range s.NewMonitor().BuildDump("test", "core", 0, nil).Probes {
		sh.Probes = append(sh.Probes, p.Name)
	}
	return sh
}

// TestOneModuleBuildsNoLink pins the merged build path's N = 1 case: Modules
// 0 and 1 build the same object graph — one module, four clocks, no link
// clock, crossbars or ports, an unpartitioned AddressMap, and no module
// prefix on any series id or probe name — for every design kind.
func TestOneModuleBuildsNoLink(t *testing.T) {
	for _, gd := range goldenDesigns() {
		d0, d1 := gd.d, gd.d
		d1.Modules = 1
		s0 := NewSystem(testCfg(), d0, sharingApp())
		s1 := NewSystem(testCfg(), d1, sharingApp())
		sh0, sh1 := shapeOf(s0), shapeOf(s1)
		if !reflect.DeepEqual(sh0, sh1) {
			t.Errorf("%s: Modules=1 graph differs from Modules=0:\n got: %+v\nwant: %+v", gd.name, sh1, sh0)
		}
		if sh1.Mods != 1 || len(sh1.Clocks) != 4 {
			t.Errorf("%s: %d modules on %d clocks, want 1 on 4", gd.name, sh1.Mods, len(sh1.Clocks))
		}
		if s1.LinkClk != nil || s1.Link != nil || s1.Mods[0].linkMissOut != nil {
			t.Errorf("%s: one-module machine built link parts", gd.name)
		}
		if s1.Mods[0].AMap != testCfg().WithDefaults().AddressMap() {
			t.Errorf("%s: one-module AddressMap was touched: %+v", gd.name, s1.Mods[0].AMap)
		}
		for _, id := range append(sh1.Series, sh1.Probes...) {
			if strings.HasPrefix(id, "m0.") {
				t.Errorf("%s: one-module machine names %q with a module prefix", gd.name, id)
			}
		}
	}
}

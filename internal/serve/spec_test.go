package serve

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dcl1sim/internal/chaos"
	"dcl1sim/internal/experiments"
	"dcl1sim/internal/gpu"
	"dcl1sim/internal/power"
)

func TestParseSweepSpecValid(t *testing.T) {
	in := []byte(`{"app":"T-AlexNet","designs":["Baseline","Pr40","Sh40+C10+Boost"],"cycles":16000,"warmup":8000}`)
	s, err := ParseSweepSpec(in)
	if err != nil {
		t.Fatalf("ParseSweepSpec: %v", err)
	}
	if s.App != "T-AlexNet" || len(s.Designs) != 3 {
		t.Fatalf("spec = %+v", s)
	}
	want := []string{"Baseline", "Pr40", "Sh40+C10+Boost"}
	if !reflect.DeepEqual(s.Designs, want) {
		t.Fatalf("designs = %v, want %v", s.Designs, want)
	}
}

func TestParseSweepSpecNormalizes(t *testing.T) {
	in := []byte(`{"app":"T-AlexNet","designs":["Baseline"],"chaos":"off","chaos_seed":9}`)
	s, err := ParseSweepSpec(in)
	if err != nil {
		t.Fatalf("ParseSweepSpec: %v", err)
	}
	if s.Chaos != "" {
		t.Fatalf("chaos %q, want folded to empty", s.Chaos)
	}
	if s.ChaosSeed != 0 {
		t.Fatalf("chaos seed %d survived chaos=off; keys would diverge", s.ChaosSeed)
	}
}

func TestParseSweepSpecRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
		frag string // required substring of the error
	}{
		{"empty", ``, "bad spec"},
		{"not json", `not json at all`, "bad spec"},
		{"array", `[1,2,3]`, "bad spec"},
		{"unknown field", `{"app":"T-AlexNet","designs":["Baseline"],"nope":1}`, "bad spec"},
		{"trailing data", `{"app":"T-AlexNet","designs":["Baseline"]} {"x":1}`, "trailing data"},
		{"missing app", `{"designs":["Baseline"]}`, "missing app"},
		{"unknown app", `{"app":"NoSuchApp","designs":["Baseline"]}`, "unknown app"},
		{"no designs", `{"app":"T-AlexNet","designs":[]}`, "no designs"},
		{"bad design", `{"app":"T-AlexNet","designs":["Frobnicate9000"]}`, "unknown design"},
		{"negative cycles", `{"app":"T-AlexNet","designs":["Baseline"],"cycles":-1}`, "cycles"},
		{"huge cycles", `{"app":"T-AlexNet","designs":["Baseline"],"cycles":200000000}`, "cycles"},
		{"negative warmup", `{"app":"T-AlexNet","designs":["Baseline"],"warmup":-5}`, "warmup"},
		{"negative cores", `{"app":"T-AlexNet","designs":["Baseline"],"cores":-8}`, "cores"},
		{"huge cores", `{"app":"T-AlexNet","designs":["Baseline"],"cores":999999}`, "cores"},
		{"bad chaos", `{"app":"T-AlexNet","designs":["Baseline"],"chaos":"catastrophic"}`, "chaos"},
		{"dropped modifier", `{"app":"T-AlexNet","designs":["Pr40+2xNoC"]}`, "does not apply"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSweepSpec([]byte(tc.in))
			if err == nil {
				t.Fatalf("ParseSweepSpec(%q) accepted", tc.in)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not mention %q", err, tc.frag)
			}
		})
	}
}

// TestSpecRefusesOversizedMachine pins that a design sizing its machine past
// the grammar's bounds or the core count never reaches a point: each is
// refused at parse or by Jobs on the default 80-core machine.
func TestSpecRefusesOversizedMachine(t *testing.T) {
	for _, design := range []string{"Baseline+100000xL1", "Sh1000000"} {
		spec, err := ParseSweepSpec([]byte(`{"app":"T-AlexNet","designs":["` + design + `"]}`))
		if err != nil {
			continue
		}
		if _, errs := spec.Jobs(); errs[0] == nil {
			t.Errorf("%s accepted on the default machine", design)
		}
	}
}

func TestParseSweepSpecTooManyDesigns(t *testing.T) {
	var b bytes.Buffer
	b.WriteString(`{"app":"T-AlexNet","designs":[`)
	for i := 0; i <= MaxSpecDesigns; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`"Baseline"`)
	}
	b.WriteString(`]}`)
	if _, err := ParseSweepSpec(b.Bytes()); err == nil {
		t.Fatalf("spec with %d designs accepted", MaxSpecDesigns+1)
	}
}

// TestEncodeFixpoint pins the canonical-form contract: parsing Encode's
// output yields an equal spec and re-encodes to equal bytes, so encoded specs
// double as identity inputs (the job log relies on this).
func TestEncodeFixpoint(t *testing.T) {
	specs := []SweepSpec{
		{App: "T-AlexNet", Designs: []string{"Baseline", "Pr40"}},
		{App: "T-AlexNet", Designs: []string{"Sh40+C10+Boost"}, Cycles: 16000, Warmup: 8000, Seed: 7},
		{App: "T-AlexNet", Designs: []string{"Baseline"}, Chaos: "light", ChaosSeed: 3},
		{App: "T-AlexNet", Designs: []string{"Pr4"}, Cores: 8, L2Slices: 4, Channels: 2},
	}
	for _, s := range specs {
		enc := s.Encode()
		got, err := ParseSweepSpec(enc)
		if err != nil {
			t.Fatalf("re-parse %s: %v", enc, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("fixpoint broken:\n  in  %+v\n  out %+v", s, got)
		}
		if !bytes.Equal(got.Encode(), enc) {
			t.Fatalf("re-encode of %s differs: %s", enc, got.Encode())
		}
	}
}

// TestExploreSpec pins that the shared grid encoding names valid designs and
// expands to runnable jobs on the default machine — the bridge dcl1explore
// -spec-out and dcl1serve meet on.
func TestExploreSpec(t *testing.T) {
	base := SweepSpec{App: "T-AlexNet", Cycles: 16000, Warmup: 8000}
	spec := ExploreSpec(base, true)
	if spec.Designs[0] != "Baseline" {
		t.Fatalf("grid must lead with the baseline, got %v", spec.Designs)
	}
	if _, err := ParseSweepSpec(spec.Encode()); err != nil {
		t.Fatalf("explore grid does not parse: %v", err)
	}
	jobs, errs := spec.Jobs()
	if len(jobs) != len(spec.Designs) {
		t.Fatalf("%d jobs for %d designs", len(jobs), len(spec.Designs))
	}
	var names []string
	for i, err := range errs {
		if err != nil {
			t.Errorf("grid design %s invalid on the default machine: %v", spec.Designs[i], err)
		}
		names = append(names, jobs[i].D.Name())
	}
	// Each job is the design its grid name says, under the same name.
	if got, want := strings.Join(names, " "), "Baseline Pr80 Pr40 Pr20 Pr10 Sh40 Sh40+Boost "+
		"Sh40+C5 Sh40+C5+Boost Sh40+C10 Sh40+C10+Boost Sh40+C20 Sh40+C20+Boost"; got != want {
		t.Errorf("grid runs %q, want %q", got, want)
	}
	unboosted := ExploreSpec(base, false)
	if len(unboosted.Designs) >= len(spec.Designs) {
		t.Fatalf("boost=false should drop the +Boost variants (%d vs %d designs)",
			len(unboosted.Designs), len(spec.Designs))
	}
}

// TestSpecPoints pins the one resolution step: Arm gives the base options
// the spec's chaos and power cap, each valid point is keyed by PointKey over
// its job, that chaos and that cap, and an invalid design keeps its error in
// its own slot.
func TestSpecPoints(t *testing.T) {
	s, err := ParseSweepSpec([]byte(`{"app":"T-AlexNet","designs":["Baseline","Pr3","Sh8+M2+G64"],"cores":8,"l2_slices":4,"channels":2,"chaos":"light","chaos_seed":3,"power_cap":50,"power_zone":"gpu"}`))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	base := gpu.HealthOptions{StallWindow: 777}
	h, pts := s.Arm(base), s.Points()
	wantCap := &power.CapSpec{Zone: power.ZoneGPU, BudgetWatts: 50, MaxLevel: 6}
	if h.StallWindow != 777 || !reflect.DeepEqual(h.PowerCap, wantCap) || !reflect.DeepEqual(h.Chaos, chaos.Light(3)) {
		t.Fatalf("health = %+v", h)
	}
	if pts[1].Err == nil || pts[1].Key != "" || pts[1].Job.App != nil {
		t.Errorf("Pr3 on 8 cores: %+v", pts[1])
	}
	jobs, _ := s.Jobs()
	for _, i := range []int{0, 2} {
		if pts[i].Err != nil || !reflect.DeepEqual(pts[i].Job, jobs[i]) {
			t.Fatalf("point %d = %+v, want job %+v", i, pts[i], jobs[i])
		}
		if want := experiments.PointKey(jobs[i], h.Chaos, h.PowerCap); pts[i].Key != want {
			t.Errorf("point %d key %q, want %q", i, pts[i].Key, want)
		}
	}
	u := s
	u.PowerCap, u.PowerZone = 0, ""
	if uncapped := u.Points(); uncapped[0].Key == pts[0].Key {
		t.Error("a capped point shares its key with the uncapped one")
	}
}

// TestPowerCapSpecField: the cap is a spec field. It normalizes like the
// chaos preset — the zone defaulted when capped, cleared when not — is
// rejected with the governor's own message, and arms and keys a point with
// the same validated CapSpec the -power-cap flag armed before it was a
// field, so keys written then still match.
func TestPowerCapSpecField(t *testing.T) {
	capped, err := ParseSweepSpec([]byte(`{"app":"T-AlexNet","designs":["Baseline"],"power_cap":60}`))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if capped.PowerZone != power.ZoneModule {
		t.Fatalf("zone %q, want the default %q", capped.PowerZone, power.ZoneModule)
	}
	stale := &power.CapSpec{Zone: power.ZoneGPU, BudgetWatts: 1}
	h, pts := capped.Arm(gpu.HealthOptions{PowerCap: stale}), capped.Points()
	if want := (&power.CapSpec{Zone: power.ZoneModule, BudgetWatts: 60, MaxLevel: 6}); !reflect.DeepEqual(h.PowerCap, want) {
		t.Fatalf("armed cap %+v, want %+v", h.PowerCap, want)
	}
	jobs, _ := capped.Jobs()
	if want := experiments.JobKey(jobs[0]) + "|cap={Zone:module BudgetWatts:60 MaxLevel:6}"; pts[0].Key != want {
		t.Fatalf("capped key %q, want %q", pts[0].Key, want)
	}

	uncapped, err := ParseSweepSpec([]byte(`{"app":"T-AlexNet","designs":["Baseline"],"power_zone":"gpu"}`))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if uncapped.PowerZone != "" || uncapped.Arm(gpu.HealthOptions{PowerCap: stale}).PowerCap != nil {
		t.Fatalf("uncapped spec %+v kept a zone or armed a cap", uncapped)
	}

	for in, frag := range map[string]string{
		`{"app":"T-AlexNet","designs":["Baseline"],"power_cap":-5}`:                    "serve: power: cap budget must be positive",
		`{"app":"T-AlexNet","designs":["Baseline"],"power_cap":5,"power_zone":"rack"}`: "serve: power: unknown zone",
	} {
		if _, err := ParseSweepSpec([]byte(in)); err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("ParseSweepSpec(%s) = %v, want %q", in, err, frag)
		}
	}
}

// TestPowerCapUncappedEncodingUnchanged: an uncapped spec encodes to the
// bytes it had before the cap fields existed, so job IDs and stored specs
// stay put.
func TestPowerCapUncappedEncodingUnchanged(t *testing.T) {
	for in, want := range map[string]string{
		`{"app":"T-AlexNet","designs":["Baseline","Pr40"]}`:                                         `{"app":"T-AlexNet","designs":["Baseline","Pr40"]}`,
		`{"app":"T-AlexNet","designs":["Sh40"],"cycles":16000,"warmup":8000,"power_zone":"module"}`: `{"app":"T-AlexNet","designs":["Sh40"],"cycles":16000,"warmup":8000}`,
		`{"app":"C-BFS","designs":["Pr4"],"cores":8,"chaos":"light","chaos_seed":2,"power_cap":0}`:  `{"app":"C-BFS","designs":["Pr4"],"cores":8,"chaos":"light","chaos_seed":2}`,
	} {
		s, err := ParseSweepSpec([]byte(in))
		if err != nil {
			t.Fatalf("parse %s: %v", in, err)
		}
		if got := string(s.Encode()); got != want {
			t.Errorf("%s encodes to %s, want %s", in, got, want)
		}
	}
}

// TestSpecJobsPerIndexErrors pins graceful degradation: a design that fails
// machine validation yields a per-index error, not a batch failure.
func TestSpecJobsPerIndexErrors(t *testing.T) {
	s, err := ParseSweepSpec([]byte(`{"app":"T-AlexNet","designs":["Baseline","Pr3","Pr4"],"cores":8,"l2_slices":4,"channels":2}`))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	jobs, errs := s.Jobs()
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("valid designs errored: %v / %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Fatalf("Pr3 on 8 cores must fail validation (3 does not divide 8)")
	}
	if jobs[0].Cfg.Cores != 8 {
		t.Fatalf("spec cores not threaded into the job config: %+v", jobs[0].Cfg)
	}
}

package cliflags

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"dcl1sim/internal/gpu"
	"dcl1sim/internal/serve"
)

// resolve parses argv through a Spec group carrying every spec flag, as
// dcl1sim registers them, and resolves it.
func resolve(argv string) (serve.SweepSpec, error) {
	var s Spec
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s.Register(fs, "app", "design", "cores", "cycles", "warmup", "seed", "chaos", "modules", "power")
	if err := fs.Parse(strings.Fields(argv)); err != nil {
		return serve.SweepSpec{}, err
	}
	return s.Resolve()
}

// TestSpecFlagsMatchTheWireForm pins that the flags and a POSTed spec are
// one run description: every argv resolves to exactly the spec
// ParseSweepSpec makes of the equivalent JSON, and every bad argv is
// rejected with the POST's own error text.
func TestSpecFlagsMatchTheWireForm(t *testing.T) {
	for _, tc := range []struct{ argv, json string }{
		{"-app T-AlexNet -design Sh40+C10+Boost",
			`{"app":"T-AlexNet","designs":["Sh40+C10+Boost"],"chaos_seed":1}`},
		{"-app C-BFS -design Pr40 -cores 16 -cycles 4000 -warmup 2000 -seed 7",
			`{"app":"C-BFS","designs":["Pr40"],"cores":16,"cycles":4000,"warmup":2000,"seed":7,"chaos_seed":1}`},
		{"-app C-BFS -design Sh40 -chaos light",
			`{"app":"C-BFS","designs":["Sh40"],"chaos":"light","chaos_seed":1}`},
		{"-app C-BFS -design Sh40 -chaos LIGHT -chaos-seed 9",
			`{"app":"C-BFS","designs":["Sh40"],"chaos":"LIGHT","chaos_seed":9}`},
		{"-app C-BFS -design Sh40 -chaos off -chaos-seed 9",
			`{"app":"C-BFS","designs":["Sh40"],"chaos":"off","chaos_seed":9}`},
		{"-app C-BFS -design Sh40+C10 -modules 4 -link-gbps 128 -link-lat 16",
			`{"app":"C-BFS","designs":["Sh40+C10"],"modules":4,"link_gbps":128,"link_lat":16,"chaos_seed":1}`},
		{"-app C-BFS -design Sh40+M4 -modules 2",
			`{"app":"C-BFS","designs":["Sh40+M4"],"modules":2,"chaos_seed":1}`},
		{"-app C-BFS -design Sh40+M4 -modules 1",
			`{"app":"C-BFS","designs":["Sh40+M4"],"modules":1,"chaos_seed":1}`},
		{"-app C-BFS -design Sh40 -power-cap 60",
			`{"app":"C-BFS","designs":["Sh40"],"chaos_seed":1,"power_cap":60}`},
		{"-app C-BFS -design Sh40 -power-cap 12.5 -power-zone gpu",
			`{"app":"C-BFS","designs":["Sh40"],"chaos_seed":1,"power_cap":12.5,"power_zone":"gpu"}`},
		{"-app C-BFS -design Sh40 -power-zone memory",
			`{"app":"C-BFS","designs":["Sh40"],"chaos_seed":1}`},
		{"-app C-BFS -design Pr40+2xL1",
			`{"app":"C-BFS","designs":["Pr40+2xL1"],"chaos_seed":1}`},

		// Rejections: the flag error is the POST error, byte for byte.
		{"-app NoSuchApp -design Baseline", `{"app":"NoSuchApp","designs":["Baseline"]}`},
		{"-app C-BFS -design Baseline -cycles -1", `{"app":"C-BFS","designs":["Baseline"],"cycles":-1}`},
		{"-app C-BFS -design Baseline -cycles 200000000", `{"app":"C-BFS","designs":["Baseline"],"cycles":200000000}`},
		{"-app C-BFS -design Baseline -link-gbps 128", `{"app":"C-BFS","designs":["Baseline"],"link_gbps":128}`},
		{"-app C-BFS -design Sh40+M4 -link-gbps 128", `{"app":"C-BFS","designs":["Sh40+M4"],"link_gbps":128}`},
		{"-app C-BFS -design Baseline -chaos catastrophic", `{"app":"C-BFS","designs":["Baseline"],"chaos":"catastrophic"}`},
		{"-app C-BFS -design Bogus99", `{"app":"C-BFS","designs":["Bogus99"]}`},
		{"-app C-BFS -design Pr40+2xNoC", `{"app":"C-BFS","designs":["Pr40+2xNoC"]}`},
		{"-app C-BFS -design Baseline -power-cap -1", `{"app":"C-BFS","designs":["Baseline"],"power_cap":-1}`},
		{"-app C-BFS -design Baseline -power-cap 60 -power-zone rack", `{"app":"C-BFS","designs":["Baseline"],"power_cap":60,"power_zone":"rack"}`},
	} {
		got, gotErr := resolve(tc.argv)
		want, wantErr := serve.ParseSweepSpec([]byte(tc.json))
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: flag error %v, POST error %v", tc.argv, gotErr, wantErr)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n  flags %+v\n  POST  %+v", tc.argv, got, want)
		}
	}
	// JSON cannot carry these, so they have no POST twin; they must still be
	// rejected, not panic in Encode.
	for _, argv := range []string{"-app C-BFS -design Baseline -power-cap NaN", "-app C-BFS -design Baseline -power-cap +Inf"} {
		if _, err := resolve(argv); err == nil {
			t.Errorf("%s accepted", argv)
		}
	}
}

// TestSpecModulesRule pins the one precedence rule: a design's own +M<n>
// wins over -modules, -modules fills only designs without one, and
// -modules 1 is a no-op.
func TestSpecModulesRule(t *testing.T) {
	for _, tc := range []struct {
		argv    string
		modules int
	}{
		{"-app C-BFS -design Sh40 -modules 4", 4},
		{"-app C-BFS -design Sh40 -modules 1", 0},
		{"-app C-BFS -design Sh40+M4 -modules 2", 4},
		{"-app C-BFS -design Sh40+M4 -modules 1", 4},
	} {
		spec, err := resolve(tc.argv)
		if err != nil {
			t.Fatalf("%s: %v", tc.argv, err)
		}
		jobs, errs := spec.Jobs()
		if errs[0] != nil || jobs[0].D.Modules != tc.modules {
			t.Errorf("%s: built %d modules (err %v), want %d", tc.argv, jobs[0].D.Modules, errs[0], tc.modules)
		}
	}
}

// TestSpecStandIn: a command that registers neither -app nor -design
// (dcl1bench) still validates its chaos and module flags as a POST would,
// and gets its spec back without a point.
func TestSpecStandIn(t *testing.T) {
	parse := func(argv string) (serve.SweepSpec, error) {
		var s Spec
		fs := flag.NewFlagSet("bench", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		s.Register(fs, "chaos", "modules", "power")
		if err := fs.Parse(strings.Fields(argv)); err != nil {
			t.Fatal(err)
		}
		return s.Resolve()
	}
	spec, err := parse("-modules 2 -chaos heavy -power-cap 60")
	if err != nil || spec.App != "" || spec.Designs != nil || spec.Modules != 2 {
		t.Fatalf("resolved %+v, %v", spec, err)
	}
	if h := spec.Arm(gpu.HealthOptions{}); h.Chaos == nil || h.PowerCap == nil || h.PowerCap.BudgetWatts != 60 {
		t.Fatalf("stand-in spec armed %+v", h)
	}
	_, err = parse("-link-lat 4")
	_, want := serve.ParseSweepSpec([]byte(`{"app":"T-AlexNet","designs":["Baseline"],"link_lat":4}`))
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("-link-lat without -modules: %v, want %v", err, want)
	}
}

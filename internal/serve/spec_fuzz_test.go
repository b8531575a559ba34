package serve

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzParseSweepSpec fuzzes the service's public admission point. The
// contract under fuzz is reject-don't-panic plus the Write∘Read fixpoint:
// any input ParseSweepSpec accepts must re-encode canonically — parsing
// Encode's output yields a deeply equal spec and byte-equal bytes. The job
// log depends on the fixpoint (recovery re-parses logged specs), so a
// violation here is a crash-safety bug, not a cosmetic one.
func FuzzParseSweepSpec(f *testing.F) {
	f.Add([]byte(`{"app":"T-AlexNet","designs":["Baseline","Pr40","Sh40+C10+Boost"]}`))
	f.Add([]byte(`{"app":"T-AlexNet","designs":["Baseline"],"cycles":16000,"warmup":8000,"seed":7}`))
	f.Add([]byte(`{"app":"T-AlexNet","designs":["Sh40"],"chaos":"light","chaos_seed":3}`))
	f.Add([]byte(`{"app":"T-AlexNet","designs":["Baseline"],"chaos":"off","chaos_seed":9}`))
	f.Add([]byte(`{"app":"T-AlexNet","designs":["Pr4"],"cores":8,"l2_slices":4,"channels":2}`))
	f.Add([]byte(`{"app":"T-AlexNet","designs":["Baseline","Sh40"],"modules":4}`))
	f.Add([]byte(`{"app":"T-AlexNet","designs":["Sh40"],"modules":2,"link_gbps":128,"link_lat":16}`))
	f.Add([]byte(`{"app":"T-AlexNet","designs":["Sh40+M4+G128"],"cores":8,"l2_slices":4,"channels":2}`))
	f.Add([]byte(`{"app":"T-AlexNet","designs":["Sh40"],"modules":1}`))
	f.Add([]byte(`{"app":"T-AlexNet","designs":["Sh40"],"modules":9}`))
	f.Add([]byte(`{"app":"T-AlexNet","designs":["Sh40"],"link_gbps":64}`))
	f.Add([]byte(`{"app":"T-AlexNet","designs":["Sh40"],"modules":2,"link_lat":-1}`))
	f.Add([]byte(`{"designs":["Baseline"]}`))
	f.Add([]byte(`{"app":"T-AlexNet","designs":[]}`))
	f.Add([]byte(`{"app":"T-AlexNet","designs":["Baseline"]} trailing`))
	f.Add([]byte(`[{"app":"T-AlexNet"}]`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))
	f.Add([]byte(`{"app":"T-AlexNet","designs":["Baseline"],"power_cap":60}`))
	f.Add([]byte(`{"app":"T-AlexNet","designs":["Baseline"],"power_cap":12.5,"power_zone":"memory"}`))
	f.Add([]byte(`{"app":"T-AlexNet","designs":["Baseline"],"power_zone":"gpu"}`))
	f.Add([]byte(`{"app":"T-AlexNet","designs":["Baseline"],"power_cap":-3}`))
	f.Add([]byte(`{"app":"T-AlexNet","designs":["Baseline"],"power_cap":5,"power_zone":"rack"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSweepSpec(data)
		if err != nil {
			return // rejected is always acceptable; panicking is not
		}
		enc := s.Encode()
		got, err := ParseSweepSpec(enc)
		if err != nil {
			t.Fatalf("accepted spec %q re-encodes to unparseable %q: %v", data, enc, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("fixpoint broken for %q:\n  first  %+v\n  second %+v", data, s, got)
		}
		if !bytes.Equal(got.Encode(), enc) {
			t.Fatalf("canonical bytes unstable for %q: %q vs %q", data, enc, got.Encode())
		}
	})
}

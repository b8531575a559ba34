package dcl1

import "testing"

// FuzzParseDesign checks that ParseDesign never panics on arbitrary input,
// and that a design is its name: every accepted design's Name() parses back
// to the same design, field for field.
func FuzzParseDesign(f *testing.F) {
	for _, s := range []string{
		"Baseline", "SingleL1", "MeshBase", "CDXBar",
		"Pr80", "Pr40", "Pr10", "Sh40", "Sh20",
		"Sh40+C10", "Sh40+C10+Boost", "Sh40+C5+PerfectL1",
		"Baseline+2xNoC", "Pr40+Boost", "CDXBar+2xNoC1", "Baseline+4xL1",
		"Sh40+C10+Boost+2xL1",
		"Sh40+M2", "Sh40+M4+G128+Lat16+Priv", "Pr40+M2", "Baseline+M8",
		"Sh40+C10+Boost+M4+G256", "CDXBar+M2+Priv",
		"", "Pr", "Pr0", "Pr-5", "Sh40+", "Sh40+C0", "Baseline+C10",
		"bogus", "Sh40+junk", "Pr40 ", "+Boost",
		"Sh40+M1", "Sh40+M9", "Sh40+M0", "Sh40+M-2", "Sh40+G64",
		"Baseline+Priv", "Sh40+Lat8", "Sh40+M2+G0", "Sh40+M2+Lat0",
		"Baseline+2xFlit", "Pr40+2xL1", "SingleL1+PerfectL1", "Sh40+C10+Boost+PF2",
		"Sh40+C10+Boost+WB", "CDXBar+2xNoC1+2xNoC", "MeshBase+4xFlit+M2",
		"Sh40+M4+G64+Lat8", "Baseline+1xL1", "Pr40+2xNoC", "CDXBar+Boost",
		"Baseline+Boost", "MeshBase+2xNoC1", "Sh40+PF0", "Sh40+PF17", "Sh40+C010",
		"Baseline+100000xL1", "Sh1000000", "Baseline+64xL1", "Sh1000000+C10",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseDesign(s) // must never panic
		if err != nil {
			return
		}
		name := d.Name()
		d2, err := ParseDesign(name)
		if err != nil {
			t.Fatalf("Name %q of parsed %q does not re-parse: %v", name, s, err)
		}
		if d2 != d {
			t.Fatalf("%q parses to %+v, its name %q to %+v", s, d, name, d2)
		}
	})
}

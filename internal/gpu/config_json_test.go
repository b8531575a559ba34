package gpu

import (
	"strings"
	"testing"
)

func TestLoadConfigRoundTrip(t *testing.T) {
	in := `{"Cores": 16, "L2Slices": 8, "Channels": 4, "MeasureCycles": 5000}`
	c, err := LoadConfig(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if c.Cores != 16 || c.L2Slices != 8 || c.MeasureCycles != 5000 {
		t.Fatalf("parsed %+v", c)
	}
	// Defaults still apply for omitted fields.
	if d := c.WithDefaults(); d.L1KB != 32 || d.L2KB != 128 {
		t.Fatalf("defaults not applied: %+v", d)
	}
}

// A typo and every Table II value that is a constant, not a Config field,
// are refused by name.
func TestLoadConfigRejectsUnknownFields(t *testing.T) {
	for _, in := range []string{
		`{"Coress": 16}`,
		`{"L1MSHRs": -8}`,
		`{"L1Ways": -2}`,
		`{"L1MaxMerge": -1}`,
		`{"L2MSHRs": -32}`,
		`{"L2Ways": -4}`,
		`{"L2Lat": -3}`,
		`{"DramBanks": -16}`,
		`{"CoreMHz": 1400}`,
		`{"NoCMHz": 700}`,
		`{"MemMHz": 924}`,
	} {
		if _, err := LoadConfig(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("%s: got %v, want an unknown-field error", in, err)
		}
	}
	if _, err := LoadConfig(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadConfigValidates(t *testing.T) {
	cases := []string{
		`{"Cores": -1}`,
		`{"MeasureCycles": -5}`,
		`{"L2Slices": 4, "Channels": 8}`,
		`{"L1KB": -4}`,
		`{"L2KB": -32}`,
		`{"MaxOutstanding": -12}`,
	}
	for _, in := range cases {
		if _, err := LoadConfig(strings.NewReader(in)); err == nil {
			t.Errorf("invalid config accepted: %s", in)
		}
	}
}

func TestValidateDefaultsOK(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config must validate: %v", err)
	}
	if err := testCfg().Validate(); err != nil {
		t.Fatalf("test config must validate: %v", err)
	}
}

func TestLoadedConfigRuns(t *testing.T) {
	in := `{"Cores": 8, "L2Slices": 4, "Channels": 2, "L1KB": 4, "L2KB": 32,
	        "WarmupCycles": 1000, "MeasureCycles": 3000}`
	c, err := LoadConfig(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	r := Run(c, Design{Kind: Baseline}, sharingApp())
	if r.IPC <= 0 {
		t.Fatal("loaded config produced a dead machine")
	}
}

package dcl1_test

import (
	"testing"

	"dcl1sim"
)

func TestParseDesignRoundTrips(t *testing.T) {
	// Every canonical name must parse back to a design with the same name.
	names := []string{
		"Baseline", "Pr80", "Pr40", "Pr20", "Pr10",
		"Sh40", "Sh40+C5", "Sh40+C10", "Sh40+C20", "Sh40+C10+Boost",
		"CDXBar", "CDXBar+2xNoC1", "CDXBar+2xNoC", "SingleL1",
		"Baseline+2xNoC", "Baseline+16xL1", "Pr40+PerfectL1",
		"Baseline+2xFlit", "Pr40+2xL1", "SingleL1+PerfectL1",
		"Sh40+C10+Boost+PF2", "Sh40+C10+Boost+WB",
	}
	for _, n := range names {
		d, err := dcl1.ParseDesign(n)
		if err != nil {
			t.Errorf("ParseDesign(%q): %v", n, err)
			continue
		}
		if got := d.Name(); got != n {
			t.Errorf("ParseDesign(%q).Name() = %q", n, got)
		}
	}
}

func TestParseDesignRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"", "Nope", "Prx", "Sh", "Sh40+Cx", "Sh40+wat", "Pr40+NxL1", "Shfoo",
		"Pr40+2xNoC", "CDXBar+Boost", "Baseline+Boost", "MeshBase+2xNoC1",
		"Baseline+100000xL1", "Sh40+65xL1",
	} {
		if _, err := dcl1.ParseDesign(bad); err == nil {
			t.Errorf("ParseDesign(%q) accepted", bad)
		}
	}
}

func TestParseDesignFields(t *testing.T) {
	d, err := dcl1.ParseDesign("Sh40+C10+Boost")
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != dcl1.Clustered || d.DCL1s != 40 || d.Clusters != 10 || !d.Boost1 {
		t.Fatalf("parsed fields wrong: %+v", d)
	}
	d2, _ := dcl1.ParseDesign("Baseline+2xNoC")
	if d2.Boost1 || !d2.Boost2 {
		t.Fatal("Baseline+2xNoC must boost NoC#2 only")
	}
	d3, _ := dcl1.ParseDesign("CDXBar+2xNoC")
	if !d3.Boost1 || !d3.Boost2 {
		t.Fatal("CDXBar+2xNoC must boost both networks")
	}
}

func TestTracePublicRoundTrip(t *testing.T) {
	app, _ := dcl1.AppByName("C-NN")
	tr := dcl1.CaptureTrace(app, 4, 50, dcl1.RoundRobin, 3)
	if tr.Cores != 4 || tr.Label() != "C-NN" {
		t.Fatalf("capture: %+v", tr)
	}
	cfg := smallCfg()
	cfg.Cores = 4
	cfg.L2Slices = 4
	cfg.Channels = 2
	r := mustRun(t, cfg, dcl1.Design{Kind: dcl1.Baseline}, tr)
	if r.IPC <= 0 {
		t.Fatal("trace replay made no progress")
	}
}

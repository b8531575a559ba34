package cliflags

import (
	"flag"
	"io"
	"testing"

	"dcl1sim"
)

// -shards defaults to serial in every command, whatever the command seeded
// the rest of the group with; auto-sizing is an explicit -shards 0.
func TestEngineShardsDefaultSerial(t *testing.T) {
	parse := func(e *Engine, args ...string) dcl1.HealthOptions {
		t.Helper()
		fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		e.Register(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		var o dcl1.HealthOptions
		e.Apply(&o)
		return o
	}
	for _, seeded := range []Engine{{}, {Workers: 1}} {
		e := seeded
		if o := parse(&e); o.Shards != 1 {
			t.Errorf("Engine%+v with no flags: Shards = %d, want 1 (serial)", seeded, o.Shards)
		}
	}
	if o := parse(&Engine{}, "-shards", "0"); o.Shards != dcl1.ShardsAuto {
		t.Errorf("-shards 0: Shards = %d, want ShardsAuto", o.Shards)
	}
	if o := parse(&Engine{}, "-shards", "4"); o.Shards != 4 {
		t.Errorf("-shards 4: Shards = %d", o.Shards)
	}
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	new(Engine).RegisterShards(fs)
	if def := fs.Lookup("shards").DefValue; def != "1" {
		t.Errorf("-shards help shows default %q, want 1", def)
	}
}

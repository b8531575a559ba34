package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"dcl1sim/internal/core"
	"dcl1sim/internal/workload"
)

func smallSpec() workload.Spec {
	return workload.Spec{
		Name: "tracee", Suite: "test", Waves: 3,
		ComputePerMem: 1, SharedLines: 50, SharedFrac: 0.5, SharedZipf: 0.3,
		PrivateLines: 40, CoalescedLines: 2, WriteFrac: 0.1, NonL1Frac: 0.05,
	}
}

func TestCaptureShape(t *testing.T) {
	tr := Capture(smallSpec(), 4, 100, workload.RoundRobin, 7)
	if lo, hi := tr.WaveRange(); tr.Cores != 4 || lo != 3 || hi != 3 || tr.OpsPer != 100 {
		t.Fatalf("shape: %+v", tr)
	}
	if len(tr.streams) != 4 {
		t.Fatalf("cores = %d", len(tr.streams))
	}
	for c, waves := range tr.streams {
		if len(waves) != 3 {
			t.Fatalf("core %d: %d streams", c, len(waves))
		}
		for w, s := range waves {
			if len(s) != 100 {
				t.Fatalf("stream %d/%d length %d", c, w, len(s))
			}
		}
	}
	if tr.Label() != "tracee" {
		t.Fatal("label")
	}
}

func TestRoundTrip(t *testing.T) {
	tr := Capture(smallSpec(), 3, 80, workload.RoundRobin, 9)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.Cores != tr.Cores || got.OpsPer != tr.OpsPer {
		t.Fatalf("header mismatch: %+v vs %+v", got, tr)
	}
	for c := range tr.streams {
		if len(got.streams[c]) != len(tr.streams[c]) {
			t.Fatalf("core %d: %d streams read, %d written", c, len(got.streams[c]), len(tr.streams[c]))
		}
		for i := range tr.streams[c] {
			a, b := tr.streams[c][i], got.streams[c][i]
			if len(a) != len(b) {
				t.Fatalf("stream %d/%d length %d vs %d", c, i, len(a), len(b))
			}
			for j := range a {
				if a[j].Kind != b[j].Kind || a[j].Blocking != b[j].Blocking ||
					a[j].Latency != b[j].Latency || a[j].Bytes != b[j].Bytes ||
					len(a[j].Lines) != len(b[j].Lines) {
					t.Fatalf("op %d/%d/%d mismatch: %+v vs %+v", c, i, j, a[j], b[j])
				}
				for k := range a[j].Lines {
					if a[j].Lines[k] != b[j].Lines[k] {
						t.Fatalf("line mismatch at %d/%d/%d/%d", c, i, j, k)
					}
				}
			}
		}
	}
}

func TestReplayMatchesGenerator(t *testing.T) {
	spec := smallSpec()
	tr := Capture(spec, 2, 50, workload.RoundRobin, 3)
	gen := spec.Program(2, 1, 2, workload.RoundRobin, 3)
	rep := tr.Program(2, 1, 2, workload.RoundRobin, 3)
	for i := 0; i < 50; i++ {
		a, b := gen.Next(), rep.Next()
		if a.Kind != b.Kind {
			t.Fatalf("op %d kind %v vs %v", i, a.Kind, b.Kind)
		}
		for k := range a.Lines {
			if a.Lines[k] != b.Lines[k] {
				t.Fatalf("op %d line %d differs", i, k)
			}
		}
	}
	// Past the recorded length the replay ends.
	if op := rep.Next(); op.Kind != core.OpEnd {
		t.Fatalf("expected OpEnd, got %v", op.Kind)
	}
}

func TestReplayOutOfRangeWaveIsEmpty(t *testing.T) {
	tr := Capture(smallSpec(), 2, 10, workload.RoundRobin, 1)
	p := tr.Program(4, 3, 9, workload.RoundRobin, 1)
	if op := p.Next(); op.Kind != core.OpEnd {
		t.Fatal("surplus wavefront must be empty")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not a trace at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated valid prefix.
	tr := Capture(smallSpec(), 2, 10, workload.RoundRobin, 1)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestReadRejectsImplausibleHeader(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.Write([]byte{0, 0})                   // empty name
	buf.Write([]byte{255, 255, 255, 255})     // cores = huge
	buf.Write([]byte{1, 0, 0, 0, 1, 0, 0, 0}) // waves, ops
	if _, err := Read(&buf); err == nil {
		t.Fatal("implausible header accepted")
	}
}

// Property: write/read round-trips arbitrary op streams.
func TestRoundTripProperty(t *testing.T) {
	f := func(kinds []uint8, linesSeed []uint16) bool {
		tr := &Trace{Name: "p", Cores: 1, OpsPer: len(kinds)}
		var ops []core.Op
		for i, k := range kinds {
			op := core.Op{Kind: core.OpKind(k % 5), Latency: int64(i % 7), Bytes: i % 128}
			if op.Kind != core.OpCompute && len(linesSeed) > 0 {
				n := int(linesSeed[i%len(linesSeed)]%4) + 1
				for j := 0; j < n; j++ {
					op.Lines = append(op.Lines, uint64(i*j)+uint64(linesSeed[i%len(linesSeed)]))
				}
			}
			ops = append(ops, op)
		}
		tr.streams = [][][]core.Op{{ops}}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got.streams[0][0]) != len(ops) {
			return false
		}
		for i := range ops {
			if got.streams[0][0][i].Kind != ops[i].Kind || len(got.streams[0][0][i].Lines) != len(ops[i].Lines) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Read accepts exactly the five recorded op kinds (compute, load, store,
// non-L1, atomic). Any other byte would replay as an instruction the issue
// stage silently drops.
func TestReadRejectsUnknownOpKind(t *testing.T) {
	tr := &Trace{Name: "k", Cores: 1, OpsPer: 1,
		streams: [][][]core.Op{{{{Kind: core.OpCompute, Latency: 1}}}}}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	at := len(magic) + 2 + len(tr.Name) + 3*4 + 4 // the op's kind byte
	read := func(kind byte) error {
		data := append([]byte(nil), buf.Bytes()...)
		data[at] = kind
		_, err := Read(bytes.NewReader(data))
		return err
	}
	for _, k := range []core.OpKind{core.OpCompute, core.OpLoad, core.OpStore, core.OpNonL1, core.OpAtomic} {
		if err := read(byte(k)); err != nil {
			t.Errorf("kind %d rejected: %v", k, err)
		}
	}
	for _, k := range []byte{5, 6, 200} {
		if err := read(k); err == nil || !strings.Contains(err.Error(), "unknown op kind") {
			t.Errorf("kind %d: err = %v, want unknown op kind", k, err)
		}
	}
}

// A trace is written as DCL1TRC1 while every core runs the same number of
// wavefronts and as DCL1TRC2 once they differ; both read back with each
// core's count.
func TestFormatVersionFollowsWaveCounts(t *testing.T) {
	skewed := smallSpec()
	skewed.Imbalance = 1 // every fourth core runs twice as many
	for _, tc := range []struct {
		spec  workload.Spec
		magic string
	}{{smallSpec(), "DCL1TRC1"}, {skewed, "DCL1TRC2"}} {
		tr := Capture(tc.spec, 5, 20, workload.RoundRobin, 1)
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		if got := string(buf.Bytes()[:8]); got != tc.magic {
			t.Errorf("imbalance %v: written as %s, want %s", tc.spec.Imbalance, got, tc.magic)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 5; c++ {
			if got.WavesFor(c) != tc.spec.WavesFor(c) {
				t.Errorf("imbalance %v core %d: read %d wavefronts, want %d",
					tc.spec.Imbalance, c, got.WavesFor(c), tc.spec.WavesFor(c))
			}
		}
	}
}

// A trace's key is a hash of its bytes: a written and re-read trace keeps it,
// and one changed op changes it.
func TestTraceKey(t *testing.T) {
	tr := Capture(smallSpec(), 4, 100, workload.RoundRobin, 7)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Key() != tr.Key() {
		t.Fatalf("re-read trace keys %q, captured %q", back.Key(), tr.Key())
	}
	changed := Capture(smallSpec(), 4, 100, workload.RoundRobin, 7)
	changed.streams[3][2][99].Latency++
	if changed.Key() == tr.Key() {
		t.Fatal("a changed op keeps the trace's key")
	}
}

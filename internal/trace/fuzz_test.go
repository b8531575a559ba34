package trace

import (
	"bytes"
	"errors"
	"testing"

	"dcl1sim/internal/core"
	"dcl1sim/internal/workload"
)

// FuzzRead hardens the trace parser against malformed inputs: it must either
// return an error or a structurally valid trace — never panic or allocate
// absurdly. Seeds include a valid trace of each format version and
// truncations of one.
func FuzzRead(f *testing.F) {
	tr := Capture(workload.Spec{
		Name: "seed", Waves: 2, PrivateLines: 10, SharedLines: 8, SharedFrac: 0.5,
	}, 2, 20, workload.RoundRobin, 1)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:9])
	f.Add([]byte("DCL1TRC1"))
	f.Add([]byte{})
	// A DCL1TRC2 trace: core 0 runs twice core 1's wavefronts.
	var v2 bytes.Buffer
	skewed := Capture(workload.Spec{Name: "skew", Waves: 1, Imbalance: 1, PrivateLines: 10}, 2, 3, workload.RoundRobin, 1)
	if err := Write(&v2, skewed); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully parsed trace must be internally consistent.
		if got.Cores < 0 || len(got.streams) != got.Cores {
			t.Fatalf("inconsistent trace accepted: %+v streams=%d", got, len(got.streams))
		}
		for _, waves := range got.streams {
			for _, s := range waves {
				for _, op := range s {
					if op.Kind > core.OpAtomic {
						t.Fatalf("op kind %d accepted", op.Kind)
					}
				}
			}
		}
	})
}

// failWriter errors after n bytes, exercising Write's error paths.
type failWriter struct{ left int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.left <= 0 {
		return 0, errors.New("disk full")
	}
	n := len(p)
	if n > w.left {
		n = w.left
		w.left = 0
		return n, errors.New("disk full")
	}
	w.left -= n
	return n, nil
}

func TestWritePropagatesIOErrors(t *testing.T) {
	tr := Capture(workload.Spec{Name: "x", Waves: 2, PrivateLines: 10}, 2, 30, workload.RoundRobin, 1)
	// A range of failure points must all surface an error (bufio defers
	// flushing, so only sufficiently small budgets can fail).
	for _, budget := range []int{0, 1, 5, 64} {
		if err := Write(&failWriter{left: budget}, tr); err == nil {
			t.Errorf("budget %d: error swallowed", budget)
		}
	}
}

func TestWriteRejectsHugeName(t *testing.T) {
	tr := &Trace{Name: string(make([]byte, 1<<16)), Cores: 1}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err == nil {
		t.Fatal("oversized name accepted")
	}
}

// Package trace records and replays workload instruction streams. A trace
// decouples the simulator from the synthetic generators: users with real
// GPU memory traces (e.g. converted from a binary-instrumentation tool) can
// replay them through every cache organization, and synthetic workloads can
// be captured once and replayed bit-identically.
//
// The on-disk format is a compact little-endian binary stream:
//
//	magic "DCL1TRC1" | name len+bytes | cores u32 | waves u32 | ops u32
//	then, per (core, wave) in row-major order, a stream of
//	  nops u32 | nops records of:
//	    kind u8 | blocking u8 | latency u16 | bytes u16 | nlines u16 | lines u64...
//
// Every core of a DCL1TRC1 trace runs the same number of wavefronts. A trace
// whose cores differ (R-SC's skewed CTA distribution) is written as
// "DCL1TRC2", which replaces the single waves field with one per core
// (cores × waves u32); everything else is the same, so a trace with uniform
// counts is always written, byte for byte, as DCL1TRC1.
//
// A replayed wavefront ends with OpEnd when its recorded stream is
// exhausted; runs longer than the trace simply idle those wavefronts, which
// mirrors how trace-driven simulators behave.
package trace

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"dcl1sim/internal/core"
	"dcl1sim/internal/workload"
)

// The two format versions: magic (v1) holds one wavefront count for every
// core, magicV2 one per core.
var (
	magic   = [8]byte{'D', 'C', 'L', '1', 'T', 'R', 'C', '1'}
	magicV2 = [8]byte{'D', 'C', 'L', '1', 'T', 'R', 'C', '2'}
)

// Trace is a fully loaded instruction trace implementing workload.Source.
type Trace struct {
	Name    string
	Cores   int
	OpsPer  int           // ops recorded per wavefront
	streams [][][]core.Op // indexed [core][wave]

	keyOnce sync.Once
	key     string
}

var _ workload.Source = (*Trace)(nil)

// Label implements workload.Source.
func (t *Trace) Label() string { return t.Name }

// Key implements workload.Source: a hash of the trace's bytes, computed on
// first use.
func (t *Trace) Key() string {
	t.keyOnce.Do(func() {
		h := sha256.New()
		_ = Write(h, t) // a hash never fails a write
		t.key = fmt.Sprintf("trace:%x", h.Sum(nil))
	})
	return t.key
}

// WavesFor implements workload.Source: the wavefronts recorded on a core. A
// core beyond the recorded ones runs none.
func (t *Trace) WavesFor(coreID int) int {
	if coreID < 0 || coreID >= len(t.streams) {
		return 0
	}
	return len(t.streams[coreID])
}

// WaveRange returns the smallest and largest per-core wavefront count (equal
// when every core runs the same number).
func (t *Trace) WaveRange() (lo, hi int) {
	for c := 0; c < t.Cores; c++ {
		n := t.WavesFor(c)
		if c == 0 || n < lo {
			lo = n
		}
		hi = max(hi, n)
	}
	return lo, hi
}

// Program implements workload.Source: replays one wavefront's stream. The
// sched and seed arguments are ignored — a trace is already scheduled.
func (t *Trace) Program(cores, coreID, waveID int, _ workload.Sched, _ uint64) core.Program {
	if waveID < 0 || waveID >= t.WavesFor(coreID) {
		// Machine larger than the trace: surplus wavefronts are empty.
		return &replay{}
	}
	return &replay{ops: t.streams[coreID][waveID]}
}

type replay struct {
	ops []core.Op
	i   int
}

func (r *replay) Next() core.Op {
	if r.i >= len(r.ops) {
		return core.Op{Kind: core.OpEnd}
	}
	op := r.ops[r.i]
	r.i++
	return op
}

// Capture materializes opsPerWave operations of a synthetic workload into a
// trace for the given machine shape: each core records the wavefronts the
// source gives it, through the same per-machine step the simulator builds
// its cores with.
func Capture(src workload.Source, cores, opsPerWave int, sched workload.Sched, seed uint64) *Trace {
	t := &Trace{
		Name:    src.Label(),
		Cores:   cores,
		OpsPer:  opsPerWave,
		streams: make([][][]core.Op, cores),
	}
	program := workload.Streams(src, cores, sched, seed)
	for c := range t.streams {
		for w := 0; w < src.WavesFor(c); w++ {
			p := program(c, w)
			ops := make([]core.Op, 0, opsPerWave)
			for i := 0; i < opsPerWave; i++ {
				op := p.Next()
				if op.Kind == core.OpEnd {
					break
				}
				// Deep-copy the line slice: generators may reuse buffers.
				if len(op.Lines) > 0 {
					lines := make([]uint64, len(op.Lines))
					copy(lines, op.Lines)
					op.Lines = lines
				}
				ops = append(ops, op)
			}
			t.streams[c] = append(t.streams[c], ops)
		}
	}
	return t
}

// Write serializes the trace: as DCL1TRC1 when every core has the same
// wavefront count, else as DCL1TRC2.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	m, header := magic, []uint32{uint32(t.Cores)}
	if lo, hi := t.WaveRange(); lo == hi {
		header = append(header, uint32(lo))
	} else {
		m = magicV2
		for c := 0; c < t.Cores; c++ {
			header = append(header, uint32(t.WavesFor(c)))
		}
	}
	header = append(header, uint32(t.OpsPer))
	if _, err := bw.Write(m[:]); err != nil {
		return err
	}
	if err := writeString(bw, t.Name); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, header); err != nil {
		return err
	}
	for c := 0; c < t.Cores; c++ {
		for w := 0; w < t.WavesFor(c); w++ {
			stream := t.streams[c][w]
			if err := binary.Write(bw, binary.LittleEndian, uint32(len(stream))); err != nil {
				return err
			}
			for _, op := range stream {
				if err := writeOp(bw, op); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// Read deserializes a trace of either format version.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic && m != magicV2 {
		return nil, errors.New("trace: bad magic (not a DCL1TRC1 or DCL1TRC2 file)")
	}
	name, err := readString(br)
	if err != nil {
		return nil, err
	}
	cores, err := readDim(br)
	if err != nil {
		return nil, fmt.Errorf("trace: header: %w", err)
	}
	// v1 holds one wavefront count for every core, v2 one per core.
	nCounts := 1
	if m == magicV2 {
		nCounts = cores
	}
	var waves []int
	for len(waves) < nCounts {
		n, err := readDim(br)
		if err != nil {
			return nil, fmt.Errorf("trace: header: %w", err)
		}
		waves = append(waves, n)
	}
	ops, err := readDim(br)
	if err != nil {
		return nil, fmt.Errorf("trace: header: %w", err)
	}
	t := &Trace{Name: name, Cores: cores, OpsPer: ops}
	for c := 0; c < cores; c++ {
		var streams [][]core.Op
		for w := 0; w < waves[min(c, len(waves)-1)]; w++ {
			stream, err := readStream(br)
			if err != nil {
				return nil, fmt.Errorf("trace: core %d stream %d: %w", c, w, err)
			}
			streams = append(streams, stream)
		}
		t.streams = append(t.streams, streams)
	}
	return t, nil
}

// readDim reads one u32 count of the format, rejecting implausible ones.
func readDim(r io.Reader) (int, error) {
	var v uint32
	if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
		return 0, err
	}
	if v > 1<<20 {
		return 0, fmt.Errorf("implausible count %d", v)
	}
	return int(v), nil
}

// readStream reads one wavefront's recorded ops.
func readStream(r io.Reader) ([]core.Op, error) {
	n, err := readDim(r)
	if err != nil {
		return nil, err
	}
	stream := make([]core.Op, 0, n)
	for j := 0; j < n; j++ {
		op, err := readOp(r)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", j, err)
		}
		stream = append(stream, op)
	}
	return stream, nil
}

func writeOp(w io.Writer, op core.Op) error {
	blocking := uint8(0)
	if op.Blocking {
		blocking = 1
	}
	hdr := []interface{}{
		uint8(op.Kind), blocking, uint16(op.Latency), uint16(op.Bytes), uint16(len(op.Lines)),
	}
	for _, v := range hdr {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, l := range op.Lines {
		if err := binary.Write(w, binary.LittleEndian, l); err != nil {
			return err
		}
	}
	return nil
}

func readOp(r io.Reader) (core.Op, error) {
	var kind, blocking uint8
	var latency, bytes, nlines uint16
	for _, p := range []interface{}{&kind, &blocking, &latency, &bytes, &nlines} {
		if err := binary.Read(r, binary.LittleEndian, p); err != nil {
			return core.Op{}, err
		}
	}
	// Only the five instruction kinds are ever recorded (Capture stops at
	// OpEnd); the issue stage would silently drop any other.
	if core.OpKind(kind) > core.OpAtomic {
		return core.Op{}, fmt.Errorf("unknown op kind %d", kind)
	}
	op := core.Op{
		Kind:     core.OpKind(kind),
		Blocking: blocking != 0,
		Latency:  int64(latency),
		Bytes:    int(bytes),
	}
	if nlines > 4096 {
		return core.Op{}, errors.New("implausible coalesced line count")
	}
	if nlines > 0 {
		op.Lines = make([]uint64, nlines)
		for i := range op.Lines {
			if err := binary.Read(r, binary.LittleEndian, &op.Lines[i]); err != nil {
				return core.Op{}, err
			}
		}
	}
	return op, nil
}

func writeString(w io.Writer, s string) error {
	if len(s) > 1<<16-1 {
		return errors.New("trace: name too long")
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// Package trace records and replays workload instruction streams. A trace
// decouples the simulator from the synthetic generators: users with real
// GPU memory traces (e.g. converted from a binary-instrumentation tool) can
// replay them through every cache organization, and synthetic workloads can
// be captured once and replayed bit-identically.
//
// The on-disk format is a compact little-endian binary stream:
//
//	magic "DCL1TRC1" | name len+bytes | cores u32 | waves u32 | ops u32
//	then, per (core, wave) in row-major order, `ops` records of:
//	  kind u8 | blocking u8 | latency u16 | bytes u16 | nlines u16 | lines u64...
//
// A replayed wavefront ends with OpEnd when its recorded stream is
// exhausted; runs longer than the trace simply idle those wavefronts, which
// mirrors how trace-driven simulators behave.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"dcl1sim/internal/core"
	"dcl1sim/internal/workload"
)

var magic = [8]byte{'D', 'C', 'L', '1', 'T', 'R', 'C', '1'}

// Trace is a fully loaded instruction trace implementing workload.Source.
type Trace struct {
	Name    string
	Cores   int
	Waves   int         // wavefronts per core (uniform)
	OpsPer  int         // ops recorded per wavefront
	streams [][]core.Op // indexed [core*Waves+wave]
}

var _ workload.Source = (*Trace)(nil)

// Label implements workload.Source.
func (t *Trace) Label() string { return t.Name }

// WavesFor implements workload.Source.
func (t *Trace) WavesFor(int) int { return t.Waves }

// Program implements workload.Source: replays one wavefront's stream. The
// sched and seed arguments are ignored — a trace is already scheduled.
func (t *Trace) Program(cores, coreID, waveID int, _ workload.Sched, _ uint64) core.Program {
	idx := coreID*t.Waves + waveID
	if coreID >= t.Cores || waveID >= t.Waves || idx >= len(t.streams) {
		// Machine larger than the trace: surplus wavefronts are empty.
		return &replay{}
	}
	return &replay{ops: t.streams[idx]}
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
// trace for the given machine shape.
func Capture(src workload.Source, cores, opsPerWave int, sched workload.Sched, seed uint64) *Trace {
	waves := src.WavesFor(0)
	t := &Trace{
		Name:   src.Label(),
		Cores:  cores,
		Waves:  waves,
		OpsPer: opsPerWave,
	}
	for c := 0; c < cores; c++ {
		for w := 0; w < waves; w++ {
			p := src.Program(cores, c, w, sched, seed)
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
			t.streams = append(t.streams, ops)
		}
	}
	return t
}

// Write serializes the trace.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if err := writeString(bw, t.Name); err != nil {
		return err
	}
	for _, v := range []uint32{uint32(t.Cores), uint32(t.Waves), uint32(t.OpsPer)} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, stream := range t.streams {
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(stream))); err != nil {
			return err
		}
		for _, op := range stream {
			if err := writeOp(bw, op); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Read deserializes a trace.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return nil, errors.New("trace: bad magic (not a DCL1TRC1 file)")
	}
	name, err := readString(br)
	if err != nil {
		return nil, err
	}
	var cores, waves, ops uint32
	for _, p := range []*uint32{&cores, &waves, &ops} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, err
		}
	}
	const maxDim = 1 << 20
	if cores > maxDim || waves > maxDim || ops > maxDim {
		return nil, errors.New("trace: implausible header dimensions")
	}
	t := &Trace{Name: name, Cores: int(cores), Waves: int(waves), OpsPer: int(ops)}
	n := int(cores) * int(waves)
	for i := 0; i < n; i++ {
		var sl uint32
		if err := binary.Read(br, binary.LittleEndian, &sl); err != nil {
			return nil, fmt.Errorf("trace: stream %d header: %w", i, err)
		}
		if sl > maxDim {
			return nil, errors.New("trace: implausible stream length")
		}
		stream := make([]core.Op, 0, sl)
		for j := uint32(0); j < sl; j++ {
			op, err := readOp(br)
			if err != nil {
				return nil, fmt.Errorf("trace: stream %d op %d: %w", i, j, err)
			}
			stream = append(stream, op)
		}
		t.streams = append(t.streams, stream)
	}
	return t, nil
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

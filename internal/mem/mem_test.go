package mem

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestFlitCount(t *testing.T) {
	cases := []struct {
		payload, link, want int
	}{
		{0, 32, 1},    // read request / ACK: control flit only
		{1, 32, 2},    // tiny payload still needs one data flit
		{32, 32, 2},   // exactly one data flit
		{33, 32, 3},   // spills into a second data flit
		{128, 32, 5},  // full cache line: header + 4 data flits
		{128, 64, 3},  // wider links (2x flit size baseline study)
		{128, 128, 2}, // line-wide links
	}
	for _, c := range cases {
		if got := FlitCount(c.payload, c.link); got != c.want {
			t.Errorf("FlitCount(%d,%d) = %d, want %d", c.payload, c.link, got, c.want)
		}
	}
}

func TestFlitCountPanicsOnBadLink(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FlitCount(128, 0)
}

func TestKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" ||
		NonL1.String() != "non-l1" || Atomic.String() != "atomic" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind must still stringify")
	}
}

func TestReplyInPlace(t *testing.T) {
	a := &Access{ID: 7, Kind: Load, Line: 42, ReqBytes: 32, Core: 3}
	r := a.Reply()
	if r != a {
		t.Fatal("Reply must mutate in place (allocation-free), not copy")
	}
	if !r.IsReply {
		t.Fatal("Reply must set IsReply")
	}
	if r.ID != 7 || r.Line != 42 || r.Core != 3 {
		t.Fatal("Reply must preserve fields")
	}
}

func defaultMap() AddressMap {
	return AddressMap{L2Slices: 32, Channels: 16, Banks: 16, RowLines: 16}
}

func TestL2SliceInterleave(t *testing.T) {
	m := defaultMap()
	for line := uint64(0); line < 64; line++ {
		if got := m.L2Slice(line); got != int(line%32) {
			t.Fatalf("L2Slice(%d) = %d", line, got)
		}
	}
}

func TestChannelPairsSlices(t *testing.T) {
	m := defaultMap()
	for s := 0; s < 32; s++ {
		want := s / 2
		if got := m.Channel(s); got != want {
			t.Fatalf("Channel(%d) = %d, want %d", s, got, want)
		}
	}
}

func TestChannelDegenerate(t *testing.T) {
	// More channels than slices must not index out of range.
	m := AddressMap{L2Slices: 4, Channels: 8, Banks: 4, RowLines: 16}
	for s := 0; s < 4; s++ {
		ch := m.Channel(s)
		if ch < 0 || ch >= 8 {
			t.Fatalf("Channel(%d) = %d out of range", s, ch)
		}
	}
}

// Property: every line maps to exactly one valid (slice, channel, bank, row)
// tuple, and the slice distribution over a dense range is perfectly balanced.
func TestAddressMapProperty(t *testing.T) {
	m := defaultMap()
	f := func(line uint64) bool {
		line %= 1 << 40
		s := m.L2Slice(line)
		ch := m.Channel(s)
		b := m.Bank(line)
		return s >= 0 && s < 32 && ch >= 0 && ch < 16 && b >= 0 && b < 16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 32)
	for line := uint64(0); line < 32*100; line++ {
		counts[m.L2Slice(line)]++
	}
	for s, c := range counts {
		if c != 100 {
			t.Fatalf("slice %d count = %d, want 100", s, c)
		}
	}
}

func TestBankRotatesWithRows(t *testing.T) {
	m := defaultMap()
	// Lines within the same row share a bank.
	if m.Bank(0) != m.Bank(15) {
		t.Fatal("lines in row 0 must share bank")
	}
	// Next row moves to the next bank.
	if m.Bank(16) != (m.Bank(0)+1)%16 {
		t.Fatalf("row 1 bank = %d", m.Bank(16))
	}
	// Rows increase once all banks cycled.
	if m.Row(0) != 0 || m.Row(uint64(16*16)) != 1 {
		t.Fatalf("Row mapping wrong: %d %d", m.Row(0), m.Row(uint64(16*16)))
	}
}

// Tens of thousands of Accesses are live on the paper's machine: the record
// stays in the 48-byte size class.
func TestAccessIs48Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Access{}); n != 48 {
		t.Fatalf("unsafe.Sizeof(Access{}) = %d, want 48", n)
	}
}

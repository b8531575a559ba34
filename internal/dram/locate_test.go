package dram

import (
	"testing"

	"dcl1sim/internal/mem"
	"dcl1sim/internal/sim"
)

// locate must equal AddressMap.Bank(line) % Banks and AddressMap.Row(line) on
// every geometry: by shift and mask when RowLines, the map's bank count and
// the channel's bank count are all powers of two (including a channel with
// fewer or more banks than the map interleaves over), by division otherwise.
func TestLocateMatchesAddressMap(t *testing.T) {
	geoms := []struct {
		rowLines, mapBanks, banks int
		pow2                      bool
	}{
		{16, 16, 16, true}, // Table II
		{1, 1, 1, true},
		{32, 8, 8, true},
		{16, 16, 4, true}, // channel folds the map's banks
		{16, 4, 16, true}, // channel has banks the map never selects
		{64, 2, 32, true},
		{16, 16, 12, false},
		{16, 12, 16, false},
		{12, 16, 16, false},
		{10, 6, 7, false},
		{3, 5, 5, false},
	}
	rng := sim.NewRNG(42)
	for _, g := range geoms {
		m := mem.AddressMap{L2Slices: 32, Channels: 16, Banks: g.mapBanks, RowLines: g.rowLines}
		c := New(Params{Name: "ch", Banks: g.banks, Map: m})
		if c.pow2 != g.pow2 {
			t.Errorf("geometry %+v: shift/mask form %t, want %t", g, c.pow2, g.pow2)
		}
		lines := []uint64{0, 1, uint64(g.rowLines) - 1, uint64(g.rowLines), 1<<63 - 1, 1 << 63, ^uint64(0)}
		for i := 0; i < 4096; i++ {
			lines = append(lines, uint64(i)) // every row/bank boundary of a small footprint
		}
		for i := 0; i < 4096; i++ {
			lines = append(lines, rng.Uint64()>>uint(rng.Intn(64)))
		}
		for _, line := range lines {
			bank, row := c.locate(line)
			if wb, wr := m.Bank(line)%g.banks, m.Row(line); bank != wb || row != wr {
				t.Fatalf("geometry %+v line %#x: locate = bank %d row %d, address map = bank %d row %d",
					g, line, bank, row, wb, wr)
			}
		}
	}
}

package cache

import (
	"math/rand"
	"testing"
)

// presenceRef is the reference directory the flat table must agree with: a
// map of sets, plus the install-time replica tally.
type presenceRef struct {
	sets       map[uint64]map[int]bool
	sum, count int64
}

func newPresenceRef() *presenceRef { return &presenceRef{sets: map[uint64]map[int]bool{}} }

func (r *presenceRef) install(id int, line uint64) {
	s := r.sets[line]
	if s == nil {
		s = map[int]bool{}
		r.sets[line] = s
	}
	s[id] = true
	r.sum += int64(len(s))
	r.count++
}

func (r *presenceRef) evict(id int, line uint64) {
	if s := r.sets[line]; s != nil {
		delete(s, id)
		if len(s) == 0 {
			delete(r.sets, line)
		}
	}
}

// refCaches spans four bitmap words, the last one partly.
const refCaches = 200

// checkPresence compares p with ref on line, from every cache's point of
// view, and checks the table's own invariants.
func checkPresence(t testing.TB, p *Presence, ref *presenceRef, line uint64) {
	t.Helper()
	s := ref.sets[line]
	if got := p.Replicas(line); got != len(s) {
		t.Fatalf("Replicas(%d) = %d, want %d", line, got, len(s))
	}
	for id := 0; id < min(refCaches, 64*p.words); id++ { // ids that joined or installed
		want := len(s) > 1 || len(s) == 1 && !s[id]
		if got := p.PresentElsewhere(id, line); got != want {
			t.Fatalf("PresentElsewhere(%d, %d) = %v, want %v (sharers %v)", id, line, got, want, s)
		}
		if got := p.Holds(id, line); got != s[id] {
			t.Fatalf("Holds(%d, %d) = %v, want %v", id, line, got, s[id])
		}
	}
	if p.Distinct() != len(ref.sets) {
		t.Fatalf("Distinct = %d, want %d", p.Distinct(), len(ref.sets))
	}
	copies := 0
	for _, s := range ref.sets {
		copies += len(s)
	}
	if p.Copies() != copies {
		t.Fatalf("Copies = %d, want %d", p.Copies(), copies)
	}
	if p.SampledReplicaSum != ref.sum || p.SampledReplicaCount != ref.count {
		t.Fatalf("sampled %d/%d, want %d/%d", p.SampledReplicaSum, p.SampledReplicaCount, ref.sum, ref.count)
	}
	checkTable(t, p)
}

// checkTable checks the probe invariant (every key is reachable from its
// home without crossing an empty slot), the key count, and that exactly the
// occupied slots carry a non-empty bitmap.
func checkTable(t testing.TB, p *Presence) {
	t.Helper()
	n, mask := 0, len(p.keys)-1
	for i, k := range p.keys {
		bm := popcount(p.bitmap(i))
		if k == 0 {
			if bm != 0 {
				t.Fatalf("empty slot %d has sharers", i)
			}
			continue
		}
		n++
		if bm == 0 {
			t.Fatalf("slot %d (line %d) has no sharers", i, k-1)
		}
		for j := p.home(k - 1); j != i; j = (j + 1) & mask {
			if p.keys[j] == 0 {
				t.Fatalf("line %d at slot %d unreachable: empty slot %d on its chain", k-1, i, j)
			}
		}
	}
	if n != p.n || n > p.limit {
		t.Fatalf("%d occupied slots, n = %d, limit = %d", n, p.n, p.limit)
	}
}

// clusteredLines returns count lines whose home slots in p's current table
// sit at its last two and first two slots, so their probe chains are long and
// wrap around the end.
func clusteredLines(p *Presence, count int) []uint64 {
	var out []uint64
	last := len(p.keys) - 1
	for x := uint64(1); len(out) < count; x++ {
		if h := p.home(x); h <= 1 || h >= last-1 {
			out = append(out, x)
		}
	}
	return out
}

// presenceDriver applies one op stream to a tracker and the reference,
// immediately or (staged) at explicit publishes, checking after every op.
type presenceDriver struct {
	t       testing.TB
	p       *Presence
	ref     *presenceRef
	apply   func()
	pending []presenceOp
}

func newPresenceDriver(t testing.TB, p *Presence, staged bool) *presenceDriver {
	d := &presenceDriver{t: t, p: p, ref: newPresenceRef()}
	if staged {
		d.apply = p.Staged()
	}
	return d
}

func (d *presenceDriver) op(id int, line uint64, evict bool) {
	if evict {
		d.p.OnEvict(id, line)
	} else {
		d.p.OnInstall(id, line)
	}
	op := presenceOp{line: line, cache: int32(id), evict: evict}
	if d.apply != nil {
		d.pending = append(d.pending, op)
	} else {
		d.refApply(op)
	}
	checkPresence(d.t, d.p, d.ref, line)
}

func (d *presenceDriver) publish() {
	if d.apply == nil {
		return
	}
	d.apply()
	for _, op := range d.pending {
		d.refApply(op)
	}
	d.pending = d.pending[:0]
	for line := range d.ref.sets {
		checkPresence(d.t, d.p, d.ref, line)
	}
}

func (d *presenceDriver) refApply(op presenceOp) {
	if op.evict {
		d.ref.evict(int(op.cache), op.line)
	} else {
		d.ref.install(int(op.cache), op.line)
	}
}

func TestPresenceMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name   string
		lines  int // NewPresence's sizing argument
		staged bool
	}{
		{"grows-from-zero", 0, false},
		{"sized", 48, false},
		{"staged", 48, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			p := NewPresence(tc.lines)
			d := newPresenceDriver(t, p, tc.staged)
			// Every word's edges, and the rest at random.
			ids := []int{0, 1, 63, 64, 65, 127, 128, 191, 192, refCaches - 1}
			pickID := func() int {
				if rng.Intn(2) == 0 {
					return ids[rng.Intn(len(ids))]
				}
				return rng.Intn(refCaches)
			}
			sized := p.Slots()
			// A sized table is allocated up front here, at its final width, so
			// that lines can be clustered against it. NewPresence(0) draws from
			// a pool wide enough to make it grow several times, and widens
			// whenever a cache id beyond its bitmaps first installs.
			pool := func() uint64 { return uint64(rng.Intn(300)) }
			if tc.lines > 0 {
				p.join(refCaches - 1)
				p.resize(sized, p.words)
				cl := clusteredLines(p, 24)
				pool = func() uint64 { return cl[rng.Intn(len(cl))] }
			}
			for i := 0; i < 4000; i++ {
				line, id := pool(), pickID()
				switch r := rng.Intn(10); {
				case r < 5:
					d.op(id, line, false)
				case r < 9:
					d.op(id, line, true)
				default: // double install, double evict
					d.op(id, line, false)
					d.op(id, line, false)
					d.op(id, line, true)
					d.op(id, line, true)
				}
				if rng.Intn(8) == 0 {
					d.publish()
				}
			}
			d.publish()
			if tc.lines == 0 && (p.Slots() <= sized || p.words != 4) {
				t.Fatalf("NewPresence(0) never grew: %d slots of %d words", p.Slots(), p.words)
			}
			// Drain: evicting every sharer empties the table.
			for line, s := range d.ref.sets {
				for id := range s {
					d.op(id, line, true)
				}
			}
			d.publish()
			if p.Distinct() != 0 {
				t.Fatalf("%d lines left after evicting every sharer", p.Distinct())
			}
		})
	}
}

func TestPresenceNil(t *testing.T) {
	var p *Presence
	p.join(5)
	p.OnInstall(5, 9)
	p.OnEvict(5, 9)
	if p.PresentElsewhere(0, 9) {
		t.Fatal("nil tracker reports presence")
	}
}

// FuzzPresence drives the table and the reference with arbitrary op streams.
// Byte 0 picks the sizing and staging; then every three bytes are one op:
// kind (install, evict, double install+evict, publish) and line pool, cache
// id, line index.
func FuzzPresence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 64, 1, 0, 200, 1, 1, 0, 1, 1, 64, 1})
	f.Add([]byte{1, 4, 63, 2, 8, 127, 2, 12, 191, 3, 5, 199, 2, 3, 0, 0})
	f.Add([]byte{2, 0, 10, 0, 0, 11, 0, 0, 12, 0, 1, 10, 0, 3, 0, 0, 1, 11, 0})
	f.Add([]byte{3, 2, 5, 9, 6, 5, 9, 3, 0, 0, 1, 5, 9, 3, 0, 0, 5, 5, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		lines := 0
		if data[0]&1 != 0 {
			lines = 32
		}
		p := NewPresence(lines)
		p.join(refCaches - 1)
		p.resize(p.Slots(), p.words) // allocate now so the clustering holds
		d := newPresenceDriver(t, p, data[0]&2 != 0)
		cl := clusteredLines(p, 16)
		for data = data[1:]; len(data) >= 3; data = data[3:] {
			id := int(data[1]) % refCaches
			line := uint64(data[2])
			if data[0]&4 != 0 {
				line = cl[int(data[2])%len(cl)]
			}
			switch data[0] & 3 {
			case 0:
				d.op(id, line, false)
			case 1:
				d.op(id, line, true)
			case 2:
				d.op(id, line, false)
				d.op(id, line, false)
				d.op(id, line, true)
				d.op(id, line, true)
			case 3:
				d.publish()
			}
		}
		d.publish()
	})
}

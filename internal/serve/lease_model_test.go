package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dcl1sim/internal/gpu"
)

// modelResult is the deterministic "simulation" the model's workers upload:
// a pure function of the point's content key, as a real result is.
func modelResult(key string) gpu.Results {
	return gpu.Results{Design: key, IPC: float64(fnv64(key)%997) / 7}
}

// modelLease is one grant as the model's worker holds it.
type modelLease struct {
	id    string
	pts   map[string]LeasePoint // token → granted point, still owned
	dead  bool                  // expired, settled, released to empty, or pre-restart
	local bool
}

// leaseModel drives one seeded random sequence of lease-protocol operations
// against a coordinator-only server and checks it against a small model:
// which leases are live, which (token, epoch) each owns, and the highest
// epoch ever granted per token.
type leaseModel struct {
	t      *testing.T
	rng    *rand.Rand
	dir    string
	s      *Server
	specs  []SweepSpec
	leases []*modelLease
	epochs map[string]int         // token → highest epoch granted, across restarts
	grants []LeasePoint           // every point ever granted (stale-upload sources)
	sent   []LeaseCompletion      // recorded uploads (duplicate sources)
	sentTo map[string]*modelLease // upload token → the lease it was recorded under
}

func (m *leaseModel) open() {
	s, err := New(Options{DataDir: m.dir, CoordinatorOnly: true, LeaseTTL: time.Hour})
	if err != nil {
		m.t.Fatalf("New: %v", err)
	}
	m.s = s
}

func (m *leaseModel) live() []*modelLease {
	var out []*modelLease
	for _, l := range m.leases {
		if !l.dead && len(l.pts) > 0 {
			out = append(out, l)
		}
	}
	return out
}

// first returns the lease's owned point with the smallest token, so a seed
// always picks the same point.
func (l *modelLease) first() LeasePoint {
	var lp LeasePoint
	for _, p := range l.pts {
		if lp.Token == "" || p.Token < lp.Token {
			lp = p
		}
	}
	return lp
}

func keyOf(t *testing.T, lp LeasePoint) string {
	pts := lp.Spec.Points()
	if len(pts) != 1 || pts[0].Err != nil {
		t.Fatalf("leased point %s: bad single spec", lp.Token)
	}
	return pts[0].Key
}

// granted records a grant, checking the out-fence invariant: every grant of
// a token carries an epoch above every earlier one — including every grant
// made before a restart.
func (m *leaseModel) granted(g LeaseGrant, local bool) {
	if g.ID == "" {
		return
	}
	if local && len(g.Points) != 1 {
		m.t.Fatalf("local grant %s has %d points, want 1", g.ID, len(g.Points))
	}
	l := &modelLease{id: g.ID, pts: map[string]LeasePoint{}, local: local}
	for _, lp := range g.Points {
		if lp.Epoch <= m.epochs[lp.Token] {
			m.t.Fatalf("out-fence: %s granted at epoch %d, not above the earlier grant's %d", lp.Token, lp.Epoch, m.epochs[lp.Token])
		}
		m.epochs[lp.Token] = lp.Epoch
		l.pts[lp.Token] = lp
		m.grants = append(m.grants, lp)
	}
	m.leases = append(m.leases, l)
}

// complete uploads ups against l and checks each status against want.
func (m *leaseModel) complete(op string, l *modelLease, ups []LeaseCompletion, want string) {
	sts, err := m.s.CompleteLeasePoints(l.id, ups)
	if l.dead {
		if err != ErrUnknownLease {
			m.t.Fatalf("%s: upload to dead lease %s: err = %v, want ErrUnknownLease", op, l.id, err)
		}
		return
	}
	if err != nil || len(sts) != len(ups) {
		m.t.Fatalf("%s: upload to live lease %s: %v, %v", op, l.id, sts, err)
	}
	for i, st := range sts {
		if st.Status != want {
			m.t.Fatalf("%s: %s (epoch %d) answered %q, want %q", op, ups[i].Token, ups[i].Epoch, st.Status, want)
		}
	}
	if len(l.pts) == 0 {
		l.dead = true
	}
}

func (m *leaseModel) step() {
	t, rng := m.t, m.rng
	switch op := rng.Intn(12); op {
	case 0: // submit
		spec := m.specs[rng.Intn(len(m.specs))]
		if _, err := m.s.Submit([]string{"alice", "bob"}[rng.Intn(2)], spec); err != nil {
			t.Fatalf("submit: %v", err)
		}
	case 1: // local acquire: one point, non-blocking
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		g, _ := localTransport{m.s}.Acquire(ctx, "local", 1)
		m.granted(g, true)
	case 2: // remote acquire
		g, err := m.s.AcquireLease("remote", 1+rng.Intn(3))
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		m.granted(g, false)
	case 3: // heartbeat: live leases renew, dead ones are fenced
		if len(m.leases) == 0 {
			return
		}
		l := m.leases[rng.Intn(len(m.leases))]
		if _, ok := m.s.RenewLease(l.id); ok == l.dead {
			t.Fatalf("heartbeat on lease %s (dead=%v) answered ok=%v", l.id, l.dead, ok)
		}
		if _, ok := m.s.ReleaseLease(l.id, []string{"none/0"}); ok == l.dead {
			t.Fatalf("release on lease %s (dead=%v) answered ok=%v", l.id, l.dead, ok)
		}
	case 4: // expire every lease
		m.s.expireLeases(time.Now().Add(2 * time.Hour))
		for _, l := range m.leases {
			l.dead = true
		}
	case 5, 6: // live upload, success or failure
		live := m.live()
		if len(live) == 0 {
			return
		}
		l := live[rng.Intn(len(live))]
		lp := l.first()
		key := keyOf(t, lp)
		up := LeaseCompletion{Token: lp.Token, Epoch: lp.Epoch, OK: true}
		if rng.Intn(5) == 0 {
			up.OK, up.Err = false, "model: simulated failure"
		} else {
			r := modelResult(key)
			up.Result = &r
		}
		m.s.mu.Lock()
		twins := append([]*point(nil), m.s.parked[key]...)
		m.s.mu.Unlock()
		delete(l.pts, lp.Token)
		m.complete("live upload", l, []LeaseCompletion{up}, CompletionRecorded)
		m.sent = append(m.sent, up)
		m.sentTo[up.Token] = l
		if up.OK {
			m.parkedResolvedFromStore(key, twins)
		}
	case 7: // stale epoch: an old grant's upload against the lease that now owns the token
		live := m.live()
		for _, old := range m.grants {
			for _, l := range live {
				cur, owned := l.pts[old.Token]
				if !owned || cur.Epoch == old.Epoch {
					continue
				}
				r := modelResult(keyOf(t, old))
				m.complete("stale epoch", l, []LeaseCompletion{{Token: old.Token, Epoch: old.Epoch, OK: true, Result: &r}}, CompletionStale)
				return
			}
		}
	case 8: // duplicate upload against the lease it was recorded under (410 once dead)
		if len(m.sent) == 0 {
			return
		}
		up := m.sent[rng.Intn(len(m.sent))]
		m.complete("duplicate", m.sentTo[up.Token], []LeaseCompletion{up}, CompletionDuplicate)
	case 9: // malformed: success without a result, or a token with garbage
		live := m.live()
		if len(live) == 0 {
			return
		}
		l := live[rng.Intn(len(live))]
		lp := l.first()
		up := LeaseCompletion{Token: lp.Token, Epoch: lp.Epoch, OK: true}
		if rng.Intn(2) == 0 {
			r := modelResult(keyOf(t, lp))
			up.Token, up.Result = lp.Token+"x", &r
		}
		m.complete("malformed", l, []LeaseCompletion{up}, CompletionStale)
	case 10: // release some or all unstarted points
		live := m.live()
		if len(live) == 0 {
			return
		}
		l := live[rng.Intn(len(live))]
		var tokens []string
		if rng.Intn(2) == 0 {
			tokens = []string{l.first().Token}
		}
		want := len(l.pts)
		if tokens != nil {
			want = 1
		}
		n, ok := m.s.ReleaseLease(l.id, tokens)
		if !ok || n != want {
			t.Fatalf("release %v of lease %s = (%d, %v), want (%d, true)", tokens, l.id, n, ok, want)
		}
		if tokens == nil {
			l.pts = nil
		} else {
			delete(l.pts, tokens[0])
		}
		if len(l.pts) == 0 {
			l.dead = true
		}
	case 11: // restart (crash) or compact the store
		if rng.Intn(2) == 0 {
			if _, err := m.s.store.Compact(time.Now()); err != nil {
				t.Fatalf("compact: %v", err)
			}
			return
		}
		m.s.Kill()
		for _, l := range m.leases {
			l.dead = true
		}
		m.open()
	}
}

// parkedResolvedFromStore checks that the twins parked behind key before its
// result landed resolved from the store, byte-identical to that result.
func (m *leaseModel) parkedResolvedFromStore(key string, twins []*point) {
	want := mustJSON(m.t, modelResult(key))
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	for _, w := range twins {
		found := false
		for _, pr := range w.job.results {
			if pr.Index != w.idx {
				continue
			}
			found = true
			if !pr.OK || !pr.Cached || !bytes.Equal(mustJSON(m.t, pr.Result), want) {
				m.t.Fatalf("parked twin %s/%d resolved as %+v, want a cached copy of the landed result", w.job.id, w.idx, pr)
			}
		}
		if !found {
			m.t.Fatalf("parked twin %s/%d still unresolved after its key's result landed", w.job.id, w.idx)
		}
	}
}

// conserve checks that every admitted point is in exactly one place —
// queued, parked behind a running key, out under a live lease, or resolved
// once — so no step can lose, duplicate or double-resolve a point.
func (m *leaseModel) conserve(step int) {
	s := m.s
	s.mu.Lock()
	defer s.mu.Unlock()
	where := map[*point]string{}
	put := func(p *point, place string) {
		if prev, dup := where[p]; dup {
			m.t.Fatalf("step %d: point %s/%d both %s and %s", step, p.job.id, p.idx, prev, place)
		}
		where[p] = place
	}
	for _, tn := range s.tenants {
		for _, p := range tn.queue {
			put(p, "queued")
		}
	}
	for key, ps := range s.parked {
		if !s.running[key] {
			m.t.Fatalf("step %d: %d point(s) parked behind %s, which is not running", step, len(ps), key)
		}
		for _, p := range ps {
			put(p, "parked")
		}
	}
	for _, l := range s.leases {
		for _, p := range l.points {
			put(p, "leased")
		}
	}
	count := map[*job]int{}
	for p := range where {
		count[p.job]++
	}
	for _, j := range s.jobs {
		seen := map[int]bool{}
		for _, pr := range j.results {
			if seen[pr.Index] {
				m.t.Fatalf("step %d: job %s resolved point %d twice", step, j.id, pr.Index)
			}
			seen[pr.Index] = true
		}
		if got := len(j.results) + count[j]; got != j.total {
			m.t.Fatalf("step %d: job %s accounts for %d of %d points (%d resolved, %d in flight)", step, j.id, got, j.total, len(j.results), count[j])
		}
	}
}

// finish settles every live lease, then leases and completes whatever is
// left until every job is done, and checks every served result.
func (m *leaseModel) finish() {
	t := m.t
	for round := 0; round < 100; round++ {
		for _, l := range m.live() {
			var ups []LeaseCompletion
			for _, lp := range l.pts {
				r := modelResult(keyOf(t, lp))
				ups = append(ups, LeaseCompletion{Token: lp.Token, Epoch: lp.Epoch, OK: true, Result: &r})
			}
			l.pts = nil
			m.complete("drain", l, ups, CompletionRecorded)
		}
		g, err := m.s.AcquireLease("drain", 0)
		if err != nil {
			t.Fatalf("drain acquire: %v", err)
		}
		m.granted(g, false)
		m.conserve(-1)
		if g.ID == "" && len(m.live()) == 0 {
			break
		}
	}
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	for _, j := range m.s.jobs {
		if !j.finished || len(j.results) != j.total {
			t.Fatalf("job %s never finished: %d of %d points resolved", j.id, len(j.results), j.total)
		}
		for _, pr := range j.results {
			if pr.OK && !bytes.Equal(mustJSON(t, pr.Result), mustJSON(t, modelResult(j.keys[pr.Index]))) {
				t.Fatalf("job %s point %d served a result that is not its key's", j.id, pr.Index)
			}
		}
	}
}

// TestLeaseModel drives seeded random sequences of submit, local and remote
// acquire, heartbeat, expiry, live / stale-epoch / duplicate / malformed
// uploads, release, crash-restart and store compaction against a reference
// model. Invariants: every point is resolved exactly once (and in exactly
// one place until then); no stale epoch, dead lease or malformed upload is
// ever recorded; a parked duplicate resolves from the store; and after a
// restart every grant out-fences every pre-restart epoch.
func TestLeaseModel(t *testing.T) {
	specs := []SweepSpec{
		testSpec(t, 0, "Baseline", "Pr4"),
		testSpec(t, 0, "Pr4", "Sh4"),
		testSpec(t, 0, "Baseline"),
		testSpec(t, 1, "Sh4", "Pr2", "Baseline"),
	}
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			m := &leaseModel{
				t: t, rng: rand.New(rand.NewSource(seed)), dir: t.TempDir(), specs: specs,
				epochs: map[string]int{}, sentTo: map[string]*modelLease{},
			}
			m.open()
			defer func() { m.s.Kill() }()
			for i := 0; i < 150; i++ {
				m.step()
				m.conserve(i)
			}
			m.finish()
		})
	}
}

package serve

import (
	"sync/atomic"
	"time"

	"dcl1sim/internal/chaos"
	"dcl1sim/internal/experiments"
	"dcl1sim/internal/gpu"
)

// Store is the persistent content-addressed result cache: results keyed by
// the canonical point identity (experiments.PointKey, the run memo key). The
// storage engine is the experiments resume journal (fsynced JSONL with
// torn-tail repair), so identical points dedupe across all tenants and
// across process restarts, and a kill can never lose a result that was
// reported stored. Hit/miss counters feed /statz.
type Store struct {
	j            *experiments.Journal
	policy       StorePolicy
	hits, misses atomic.Int64
	compactions  atomic.Int64
	dropped      atomic.Int64
}

// StorePolicy bounds the store's retention. Zero fields disable their half
// of the policy: the default store keeps everything forever.
type StorePolicy struct {
	// MaxAge drops entries older than this at compaction time. Entries
	// recorded before timestamps existed count as infinitely old.
	MaxAge time.Duration
	// MaxBytes bounds the rewritten results.jsonl size; oldest entries are
	// dropped first until the survivors fit.
	MaxBytes int64
}

// Enabled reports whether any retention bound is set.
func (p StorePolicy) Enabled() bool { return p.MaxAge > 0 || p.MaxBytes > 0 }

// OpenStore opens (or creates) the store at path, reloading every result a
// previous process lifetime recorded. The policy only takes effect when the
// owner calls Compact; opening never drops data by itself.
func OpenStore(path string, policy StorePolicy) (*Store, error) {
	j, err := experiments.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	return &Store{j: j, policy: policy}, nil
}

// Compact rewrites the store file under the retention policy, returning how
// many entries were dropped. A store without a policy compacts to a no-op
// rewrite (superseded duplicate lines still collapse). Dropped entries
// simply fall out of the cache — the points re-run byte-identically on next
// demand, so compaction can never bend a result.
func (s *Store) Compact(now time.Time) (int, error) {
	n, err := s.j.Compact(s.policy.MaxAge, s.policy.MaxBytes, now)
	if err != nil {
		return n, err
	}
	s.compactions.Add(1)
	s.dropped.Add(int64(n))
	return n, nil
}

// Compactions and Dropped return the lifetime compaction counters.
func (s *Store) Compactions() int64 { return s.compactions.Load() }
func (s *Store) Dropped() int64     { return s.dropped.Load() }

// Key returns the content address of one uncapped point: the key
// SweepSpec.Points gives it.
func (s *Store) Key(j gpu.Job, spec *chaos.Spec) string {
	return experiments.PointKey(j, spec, nil)
}

// Peek returns the stored result for key without touching the hit/miss
// counters (admission fast-path placement and restart reconstruction are not
// cache traffic).
func (s *Store) Peek(key string) (gpu.Results, bool) { return s.j.Done(key) }

// count records a cache hit or miss decided outside Lookup: the server
// counts a hit where a Peek resolves a point and a miss where it grants one.
func (s *Store) count(hit bool) {
	if hit {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
}

// Lookup returns the stored result for key, counting the probe as a cache
// hit or miss.
func (s *Store) Lookup(key string) (gpu.Results, bool) {
	r, ok := s.j.Done(key)
	s.count(ok)
	return r, ok
}

// FailedEntry returns the recorded error text of key's most recent failed
// attempt (with no success since), for reconstructing finished jobs after a
// restart.
func (s *Store) FailedEntry(key string) (string, bool) { return s.j.Failed(key) }

// Journal exposes the underlying journal so the sweep supervisor records
// (and skips) through the same keyed store.
func (s *Store) Journal() *experiments.Journal { return s.j }

// Entries returns the number of distinct successful results stored.
func (s *Store) Entries() int { return s.j.Completed() }

// Hits and Misses return the lifetime lookup counters.
func (s *Store) Hits() int64   { return s.hits.Load() }
func (s *Store) Misses() int64 { return s.misses.Load() }

// Close releases the underlying journal file.
func (s *Store) Close() error { return s.j.Close() }

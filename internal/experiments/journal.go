package experiments

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"dcl1sim/internal/gpu"
)

// JobKey returns the canonical identity of one sweep point — the same string
// the experiment memo uses, so journal hits and memo hits agree. It encodes
// the model version, the design, the app's label and content (Source.Key:
// a re-fitted app misses), and the machine configuration. Design and
// configuration are written as their non-zero fields only (fieldsKey), so
// deleting a field nothing sets leaves every key as it was.
func JobKey(j gpu.Job) string {
	return "model=" + gpu.ModelVersion + "|" + fieldsKey(j.D) + "|" + gpu.SafeLabel(j.App) + "|" +
		gpu.SafeKey(j.App) + "|" + fieldsKey(j.Cfg)
}

// fieldsKey encodes a struct value as its non-zero fields, "Name=value" in
// declaration order, separated by spaces.
func fieldsKey(v any) string {
	var b strings.Builder
	rv := reflect.ValueOf(v)
	rt := rv.Type()
	for i := range rv.NumField() {
		f := rv.Field(i)
		if f.IsZero() {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%v", rt.Field(i).Name, f.Interface())
	}
	return b.String()
}

// Log is the storage engine under the resume journal and the service-layer
// job log: an append-only JSONL file where every record is fsynced before
// Append returns, so a record that was reported durable survives any kill.
// Opening repairs the signature damage of a killed writer — a torn tail line
// (no trailing newline) is terminated so the next append starts on a fresh
// line, and garbled whole lines are surfaced to the caller's line callback to
// skip rather than aborting the open. Safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	path string
	f    *os.File
	// broken is set while f is not the durable file at path (a Rewrite
	// failed after its rename), so Append cannot report a loseable record.
	broken error
}

// syncDir is fsyncDir, a variable so tests can count the calls.
var syncDir = fsyncDir

// fsyncDir fsyncs directory dir, making a file created or renamed in it
// durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// OpenLog opens (or creates) the JSONL log at path, invokes line for every
// existing line (including damaged ones — the callback decides what parses),
// repairs a torn tail, and positions the log for appending.
func OpenLog(path string, line func([]byte)) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("experiments: open log: %w", err)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if b := sc.Bytes(); len(b) > 0 && line != nil {
			line(b)
		}
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("experiments: read log: %w", err)
	}
	// Append at the end — and if the file ends in a torn line (no trailing
	// newline, the signature of a killed mid-write process), terminate it
	// first so the next record starts on a fresh line instead of gluing onto
	// the torn one and corrupting both.
	off, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("experiments: seek log: %w", err)
	}
	if off > 0 {
		last := make([]byte, 1)
		if _, err := f.ReadAt(last, off-1); err == nil && last[0] != '\n' {
			f.Write([]byte("\n"))
		}
	} else if err := syncDir(filepath.Dir(path)); err != nil {
		// An empty log may be one this call created: until its directory
		// is synced, a power loss can drop the file and every record in it.
		f.Close()
		return nil, fmt.Errorf("experiments: sync log directory: %w", err)
	}
	return &Log{path: path, f: f}, nil
}

// Rewrite atomically replaces the log's contents with whatever fill writes:
// the new contents land in a temp file, are fsynced, and are renamed over
// the log path, and the directory is synced, so a kill or power loss at any
// instant leaves either the old file or the complete new one — never a
// partial rewrite. The log stays open for appending afterwards. If the
// renamed file cannot be reopened or its directory synced, the log is
// broken: every Append fails until a Rewrite succeeds. Used by journal
// compaction.
func (l *Log) Rewrite(fill func(io.Writer) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	tmp := l.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("experiments: rewrite log: %w", err)
	}
	bw := bufio.NewWriter(f)
	err = fill(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("experiments: rewrite log: %w", err)
	}
	// From here the old file is unlinked: appending to it would lose records.
	l.f.Close()
	if l.f, err = os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0); err != nil {
		l.broken = fmt.Errorf("experiments: reopen log: %w", err)
	} else if err = syncDir(filepath.Dir(l.path)); err != nil {
		l.broken = fmt.Errorf("experiments: sync log directory: %w", err)
	} else {
		l.broken = nil
	}
	return l.broken
}

// Append marshals v as one JSON line and fsyncs it: when Append returns nil
// the record is durable. Marshal failures are reported; write failures are
// reported but leave the log usable (disk trouble degrades durability, never
// the caller's in-memory progress). A log broken by Rewrite fails.
func (l *Log) Append(v interface{}) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("experiments: marshal log record: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return l.broken
	}
	if _, err := l.f.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("experiments: append log record: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("experiments: sync log: %w", err)
	}
	return nil
}

// Close releases the underlying file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil // a failed reopen left nothing open
	}
	return l.f.Close()
}

// journalEntry is one JSONL record: a completed sweep point, successful or
// not. Failed points carry OK=false and the error text; they are re-run on
// resume (the failure may have been transient), so only OK entries feed the
// skip set.
type journalEntry struct {
	Key    string      `json:"key"`
	OK     bool        `json:"ok"`
	Err    string      `json:"err,omitempty"`
	Result gpu.Results `json:"result"`
	// At is the record's unix timestamp, feeding the max-age compaction
	// policy. Entries written before the field existed load as 0 and are
	// treated as expired whenever a max-age bound is in force.
	At int64 `json:"at,omitempty"`
}

// Journal persists completed sweep points to a JSONL file so an interrupted
// sweep resumes by skipping finished work. Results round-trip exactly:
// encoding/json preserves float64 bit patterns and the cycle counts stay
// below 2^53, so a resumed sweep's aggregate output is byte-identical to an
// uninterrupted run's. The same property makes it a content-addressed result
// store: keys are the canonical point identity (PointKey), so any
// caller holding an equal key — another sweep, another service tenant,
// another process lifetime — gets the identical stored result. Safe for
// concurrent use by the sweep workers.
type Journal struct {
	log    *Log
	mu     sync.Mutex
	done   map[string]gpu.Results
	failed map[string]string // key → error text of the last failed attempt
	at     map[string]int64  // key → unix timestamp of the surviving entry
	seen   int               // total entries loaded or recorded, including failures
}

// OpenJournal opens (or creates) the journal at path and loads every entry
// already present. A truncated or garbled tail line — the signature of a
// killed process — is skipped, not fatal: the affected point simply re-runs.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{done: map[string]gpu.Results{}, failed: map[string]string{}, at: map[string]int64{}}
	log, err := OpenLog(path, func(line []byte) {
		var e journalEntry
		if json.Unmarshal(line, &e) != nil || e.Key == "" {
			return // damaged line (interrupted write): point re-runs
		}
		j.seen++
		j.at[e.Key] = e.At
		if e.OK {
			j.done[e.Key] = e.Result
			delete(j.failed, e.Key)
		} else {
			j.failed[e.Key] = e.Err
		}
	})
	if err != nil {
		return nil, err
	}
	j.log = log
	return j, nil
}

// Done reports whether key completed successfully in a previous (or this)
// run, returning its recorded results.
func (j *Journal) Done(key string) (gpu.Results, bool) {
	if j == nil {
		return gpu.Results{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	r, ok := j.done[key]
	return r, ok
}

// Failed reports whether key's most recent journaled attempt failed (with no
// success since), returning the recorded error text. Failed entries are
// advisory — resume re-runs them — but a reader reconstructing a finished
// job's report wants the recorded failure rather than a blank.
func (j *Journal) Failed(key string) (string, bool) {
	if j == nil {
		return "", false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.done[key]; ok {
		return "", false
	}
	msg, ok := j.failed[key]
	return msg, ok
}

// Completed returns the number of successfully journaled points.
func (j *Journal) Completed() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Record appends one completed point and syncs it to disk, so a kill after
// Record never loses the point. Failures (err != nil) are journaled for the
// record but re-run on resume. Nil-safe: a nil journal records nothing.
func (j *Journal) Record(key string, r gpu.Results, err error) {
	if j == nil {
		return
	}
	e := journalEntry{Key: key, OK: err == nil, Result: r, At: time.Now().Unix()}
	if err != nil {
		e.Err = err.Error()
		e.Result = gpu.Results{}
	}
	// Append under the journal mutex (lock order Journal.mu → Log.mu) so a
	// concurrent Compact can never rewrite the file from a snapshot that
	// misses a record whose Append already returned.
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log.Append(e) != nil {
		return // disk trouble degrades resumability, never the sweep itself
	}
	j.seen++
	j.at[key] = e.At
	if err == nil {
		j.done[key] = r
		delete(j.failed, key)
	} else {
		j.failed[key] = e.Err
	}
}

// Compact rewrites the journal file keeping only live entries (the per-key
// survivors already in memory) that pass the retention policy: entries older
// than maxAge relative to now are dropped (entries recorded before the
// timestamp field existed count as infinitely old), then oldest-first until
// the encoded file fits maxBytes. Zero bounds disable their half of the
// policy; Compact with both bounds zero still rewrites away superseded
// duplicate lines. The rewrite is atomic (temp file + rename), surviving
// entries re-encode byte-identically to what a fresh Record would write, and
// the file order is deterministic (timestamp, then key). Returns how many
// live entries were dropped.
func (j *Journal) Compact(maxAge time.Duration, maxBytes int64, now time.Time) (int, error) {
	if j == nil {
		return 0, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	type row struct {
		at   int64
		key  string
		line []byte
	}
	rows := make([]row, 0, len(j.done)+len(j.failed))
	encode := func(e journalEntry) error {
		b, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("experiments: compact journal: %w", err)
		}
		rows = append(rows, row{at: e.At, key: e.Key, line: b})
		return nil
	}
	for key, r := range j.done {
		if err := encode(journalEntry{Key: key, OK: true, Result: r, At: j.at[key]}); err != nil {
			return 0, err
		}
	}
	for key, msg := range j.failed {
		if _, ok := j.done[key]; ok {
			// Invisible behind the success (Failed ignores done keys); a
			// second row would sort against the first in arbitrary order.
			delete(j.failed, key)
			continue
		}
		if err := encode(journalEntry{Key: key, Err: msg, At: j.at[key]}); err != nil {
			return 0, err
		}
	}
	sort.Slice(rows, func(i, k int) bool {
		if rows[i].at != rows[k].at {
			return rows[i].at < rows[k].at
		}
		return rows[i].key < rows[k].key
	})
	keepFrom := 0
	if maxAge > 0 {
		cutoff := now.Add(-maxAge).Unix()
		for keepFrom < len(rows) && rows[keepFrom].at < cutoff {
			keepFrom++
		}
	}
	if maxBytes > 0 {
		var total int64
		for _, r := range rows[keepFrom:] {
			total += int64(len(r.line)) + 1
		}
		for keepFrom < len(rows) && total > maxBytes {
			total -= int64(len(rows[keepFrom].line)) + 1
			keepFrom++
		}
	}
	survivors := rows[keepFrom:]
	if err := j.log.Rewrite(func(w io.Writer) error {
		for _, r := range survivors {
			if _, err := w.Write(append(r.line, '\n')); err != nil {
				return fmt.Errorf("experiments: compact journal: %w", err)
			}
		}
		return nil
	}); err != nil {
		return 0, err
	}
	for _, r := range rows[:keepFrom] {
		delete(j.done, r.key)
		delete(j.failed, r.key)
		delete(j.at, r.key)
	}
	j.seen = len(survivors)
	return keepFrom, nil
}

// Close releases the underlying file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	return j.log.Close()
}

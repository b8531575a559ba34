package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dcl1sim/internal/gpu"
)

// recoveryRun is the state a real short run leaves behind — both logs of a
// server that ran two overlapping sweeps on local workers (submit, lease and
// done records; fresh and deduped results) — plus the cold
// result of every point, by content key.
var recoveryRun struct {
	once          sync.Once
	jobs, results []byte
	cold          map[string][]byte
}

func loadRecoveryRun(t *testing.T) {
	recoveryRun.once.Do(func() {
		dir := t.TempDir()
		s, err := New(Options{DataDir: dir, Workers: 2})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		recoveryRun.cold = map[string][]byte{}
		for i, spec := range []SweepSpec{testSpec(t, 0, "Baseline", "Pr4"), testSpec(t, 0, "Pr4", "Sh4")} {
			st, err := s.Submit([]string{"alice", "bob"}[i], spec)
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			waitJob(t, s, st.ID)
			pts := spec.Points()
			for k, r := range coldResults(t, spec) {
				recoveryRun.cold[pts[k].Key] = mustJSON(t, &r)
			}
		}
		closeServer(t, s)
		recoveryRun.jobs, _ = os.ReadFile(filepath.Join(dir, "jobs.jsonl"))
		recoveryRun.results, _ = os.ReadFile(filepath.Join(dir, "results.jsonl"))
	})
	if recoveryRun.cold == nil {
		t.Fatalf("recovery run unavailable")
	}
}

// tear cuts b at frac/65535 of its length — a kill mid-append — and, when
// swap is set, swaps its last two complete lines — fsyncs landing out of
// order.
func tear(b []byte, frac uint16, swap bool) []byte {
	out := append([]byte(nil), b[:len(b)*int(frac)/65535]...)
	if !swap {
		return out
	}
	end := bytes.LastIndexByte(out, '\n')
	if end < 0 {
		return out
	}
	lines := bytes.Split(out[:end], []byte("\n"))
	if n := len(lines); n >= 2 {
		lines[n-2], lines[n-1] = lines[n-1], lines[n-2]
	}
	return append(append(bytes.Join(lines, []byte("\n")), '\n'), out[end+1:]...)
}

// FuzzServeRecovery tears and reorders the two logs of a real run and
// restarts on them. New must not panic or fail; every job with a submit
// record and no done record must come back as a recovered, resubmitted job;
// and every result the server serves — replayed from the store at restart or
// recorded after it — must be byte-equal to the cold run.
func FuzzServeRecovery(f *testing.F) {
	f.Add(uint16(65535), uint16(65535), uint8(0)) // clean restart
	f.Add(uint16(0), uint16(65535), uint8(0))     // job log lost
	f.Add(uint16(65535), uint16(0), uint8(0))     // result store lost
	f.Add(uint16(32768), uint16(32768), uint8(0)) // both torn mid-file
	f.Add(uint16(60000), uint16(50000), uint8(3)) // torn, tails reordered
	f.Add(uint16(65535), uint16(65535), uint8(3)) // whole files, tails reordered
	f.Add(uint16(20000), uint16(65000), uint8(1))
	f.Fuzz(func(t *testing.T, jobsAt, resultsAt uint16, reorder uint8) {
		loadRecoveryRun(t)
		dir := t.TempDir()
		jobs := tear(recoveryRun.jobs, jobsAt, reorder&1 != 0)
		if err := os.WriteFile(filepath.Join(dir, "jobs.jsonl"), jobs, 0o644); err != nil {
			t.Fatal(err)
		}
		results := tear(recoveryRun.results, resultsAt, reorder&2 != 0)
		if err := os.WriteFile(filepath.Join(dir, "results.jsonl"), results, 0o644); err != nil {
			t.Fatal(err)
		}

		// What the torn job log still says: its readable submit and done
		// records.
		submitted, done := map[string]bool{}, map[string]bool{}
		for _, line := range bytes.Split(jobs, []byte("\n")) {
			var rec jobRecord
			if json.Unmarshal(line, &rec) != nil || rec.ID == "" {
				continue
			}
			switch rec.Op {
			case "submit":
				submitted[rec.ID] = true
			case "done":
				done[rec.ID] = true
			}
		}

		s, err := New(Options{DataDir: dir, CoordinatorOnly: true})
		if err != nil {
			t.Fatalf("New on torn logs: %v", err)
		}
		defer s.Kill()
		resubmitted := 0
		for id := range submitted {
			st, ok := s.Job(id, false)
			if !ok || !st.Recovered {
				t.Fatalf("job %s has a submit record but was not recovered: %+v", id, st)
			}
			if !done[id] {
				resubmitted++
			}
		}
		if got := s.Stats().JobsRecovered; got != int64(resubmitted) {
			t.Fatalf("resubmitted %d jobs, want the %d with no done record", got, resubmitted)
		}

		// Finish whatever re-runs, as a worker uploading the cold results.
		for {
			g, err := s.AcquireLease("fuzz", 0)
			if err != nil {
				t.Fatalf("acquire: %v", err)
			}
			if g.ID == "" {
				break
			}
			ups := make([]LeaseCompletion, len(g.Points))
			for i, lp := range g.Points {
				var r gpu.Results
				if err := json.Unmarshal(recoveryRun.cold[keyOf(t, lp)], &r); err != nil {
					t.Fatalf("cold result of %s: %v", lp.Token, err)
				}
				ups[i] = LeaseCompletion{Token: lp.Token, Epoch: lp.Epoch, OK: true, Result: &r}
			}
			if _, err := s.CompleteLeasePoints(g.ID, ups); err != nil {
				t.Fatalf("complete: %v", err)
			}
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		for id := range submitted {
			j := s.jobs[id]
			if !j.finished {
				t.Fatalf("resubmitted job %s did not finish: %+v", id, j.status(false))
			}
			for _, pr := range j.results {
				if pr.OK && !bytes.Equal(mustJSON(t, pr.Result), recoveryRun.cold[j.keys[pr.Index]]) {
					t.Fatalf("job %s point %d served a result that differs from the cold run", id, pr.Index)
				}
			}
		}
	})
}

// TestJobLogRecordsWhatReplayReads: a local sweep's job log holds one lease
// record per grant and only the records replay reads — no lease's end.
func TestJobLogRecordsWhatReplayReads(t *testing.T) {
	loadRecoveryRun(t)
	ops := map[string]int{}
	for _, line := range bytes.Split(bytes.TrimSpace(recoveryRun.jobs), []byte("\n")) {
		var rec jobRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("job log line %q: %v", line, err)
		}
		ops[rec.Op]++
	}
	if ops["submit"] != 2 || ops["done"] != 2 || ops["lease"] == 0 || len(ops) != 3 {
		t.Errorf("job log records %v, want 2 submit, 2 done, some lease and nothing else", ops)
	}
}

package jobs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// walFixture writes a small but representative log: three jobs covering
// every lifecycle shape (done with outcome, failed after retry, still
// queued at "crash" time), returning the directory.
func walFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	w, rep, err := OpenWAL(WALOptions{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	if len(rep.Jobs) != 0 {
		t.Fatalf("fresh dir replayed %d jobs", len(rep.Jobs))
	}
	now := time.Unix(0, 1700000000_000000000)
	mk := func(id, hash string, prio int) *Job {
		return NewJob(id, hash, Spec{Molecule: "h2", Mode: ModeSerial, Priority: prio}, now)
	}
	j1, j2, j3 := mk("job-000001", "hash-a", 0), mk("job-000002", "hash-b", 1), mk("job-000003", "hash-c", 0)
	out := &Outcome{Energy: -1.1167, Converged: true, Iterations: 9, NumBF: 2, Mode: ModeSerial}

	steps := []error{
		w.AppendAccept(j1, now),
		w.AppendState(j1.ID, StateRunning, 1, "", nil, now),
		w.AppendState(j1.ID, StateDone, 1, "", out, now),
		w.AppendAccept(j2, now),
		w.AppendState(j2.ID, StateRunning, 1, "", nil, now),
		w.AppendState(j2.ID, StateQueued, 1, "", nil, now), // retry requeue
		w.AppendState(j2.ID, StateRunning, 2, "", nil, now),
		w.AppendState(j2.ID, StateFailed, 2, "did not converge", nil, now),
		w.AppendAccept(j3, now),
		w.AppendState(j3.ID, StateRunning, 1, "", nil, now),
	}
	for i, err := range steps {
		if err != nil {
			t.Fatalf("append step %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return dir
}

func TestWALReplayRoundTrip(t *testing.T) {
	dir := walFixture(t)
	rep, _, err := ReplayDir(dir)
	if err != nil {
		t.Fatalf("ReplayDir: %v", err)
	}
	if rep.Corrupt != nil {
		t.Fatalf("clean log reported corruption: %v", rep.Corrupt)
	}
	if len(rep.Jobs) != 3 || rep.Records != 10 {
		t.Fatalf("replayed %d jobs / %d records, want 3 / 10", len(rep.Jobs), rep.Records)
	}
	if rep.MaxID != 3 {
		t.Errorf("MaxID = %d, want 3", rep.MaxID)
	}
	byID := map[string]*ReplayJob{}
	for _, j := range rep.Jobs {
		byID[j.ID] = j
	}
	if j := byID["job-000001"]; j.State != StateDone || j.Outcome == nil || j.Outcome.Energy != -1.1167 {
		t.Errorf("job-000001 replayed wrong: %+v", j)
	}
	if j := byID["job-000002"]; j.State != StateFailed || j.Attempts != 2 || j.Error == "" {
		t.Errorf("job-000002 replayed wrong: %+v", j)
	}
	// The job running at crash time is pending — and only it.
	pending := rep.Pending()
	if len(pending) != 1 || pending[0].ID != "job-000003" {
		t.Fatalf("Pending() = %v, want exactly job-000003", pending)
	}
	// A restored pending job re-enters the FSM as Queued with its attempt
	// count intact.
	j := RestoreJob(pending[0])
	if j.State() != StateQueued || j.Attempts() != 1 {
		t.Errorf("restored job state %s attempts %d, want queued/1", j.State(), j.Attempts())
	}
}

// TestWALCrashPointTruncation truncates the log at EVERY byte boundary
// and asserts replay never panics, never invents jobs, never loses a job
// whose accept record is intact, and never moves a job to done without
// the full done record — the consistent-prefix property.
func TestWALCrashPointTruncation(t *testing.T) {
	dir := walFixture(t)
	seg := filepath.Join(dir, segName(1))
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, _ := ReplayDir(dir)

	// Record boundaries: a cut exactly between records is a legitimately
	// shorter log (the tail was simply never written); a cut anywhere else
	// tears a record and MUST be reported as corruption.
	boundaries := map[int]int{} // byte offset → records before it
	{
		off := bytesIndexByte(full, '\n') + 1 // past the segment header
		boundaries[off] = 0
		n := 0
		for off < len(full) {
			nl := bytesIndexByte(full[off:], '\n')
			var bodyLen int
			var crc uint32
			if _, err := fmtSscanf(string(full[off:off+nl]), &bodyLen, &crc); err != nil {
				t.Fatalf("fixture scan: %v", err)
			}
			off += nl + 1 + bodyLen + 1
			n++
			boundaries[off] = n
		}
	}

	tdir := t.TempDir()
	tseg := filepath.Join(tdir, segName(1))
	prevRecords := -1
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(tseg, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rep, _, err := ReplayDir(tdir) // must never panic
		if err != nil {
			t.Fatalf("cut %d: I/O error: %v", cut, err)
		}
		atBoundary, nBefore := false, 0
		if n, ok := boundaries[cut]; ok {
			atBoundary, nBefore = true, n
		}
		if atBoundary {
			if rep.Corrupt != nil || rep.Records != nBefore {
				t.Fatalf("cut %d (boundary): %d records, corrupt=%v; want %d records, clean",
					cut, rep.Records, rep.Corrupt, nBefore)
			}
		} else if rep.Corrupt == nil {
			t.Fatalf("cut %d tears a record but replay reported no corruption (%d records)",
				cut, rep.Records)
		}
		if rep.Records < prevRecords {
			t.Fatalf("cut %d: replay went backwards (%d < %d records) — not a prefix",
				cut, rep.Records, prevRecords)
		}
		prevRecords = rep.Records
		if len(rep.Jobs) > len(ref.Jobs) {
			t.Fatalf("cut %d: invented %d jobs", cut, len(rep.Jobs)-len(ref.Jobs))
		}
		for i, j := range rep.Jobs {
			if j.ID != ref.Jobs[i].ID {
				t.Fatalf("cut %d: job %d is %s, reference has %s — not a prefix", cut, i, j.ID, ref.Jobs[i].ID)
			}
			// Never double-run a done job: done implies the recorded outcome
			// survived intact.
			if j.State == StateDone && (j.Outcome == nil || j.Outcome.Energy != ref.Jobs[i].Outcome.Energy) {
				t.Fatalf("cut %d: job %s done without an intact outcome", cut, j.ID)
			}
		}
		for _, p := range rep.Pending() {
			if p.State.Terminal() {
				t.Fatalf("cut %d: terminal job %s in Pending()", cut, p.ID)
			}
		}
	}
}

// TestWALCrashPointBitFlip flips one bit at every byte of the log and
// asserts replay either still yields the reference state (flip landed in
// already-discardable tail — impossible here, so really: never) or
// reports corruption with a consistent prefix. Single-bit damage must
// never pass silently.
func TestWALCrashPointBitFlip(t *testing.T) {
	dir := walFixture(t)
	seg := filepath.Join(dir, segName(1))
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, _ := ReplayDir(dir)

	tdir := t.TempDir()
	tseg := filepath.Join(tdir, segName(1))
	buf := make([]byte, len(full))
	for i := 0; i < len(full); i++ {
		for _, bit := range []uint{0, 3, 7} {
			copy(buf, full)
			buf[i] ^= 1 << bit
			if err := os.WriteFile(tseg, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			rep, _, err := ReplayDir(tdir) // must never panic
			if err != nil {
				t.Fatalf("flip %d.%d: I/O error: %v", i, bit, err)
			}
			if rep.Corrupt == nil && rep.Records != ref.Records {
				t.Fatalf("flip %d.%d: silent record loss (%d of %d)", i, bit, rep.Records, ref.Records)
			}
			if len(rep.Jobs) > len(ref.Jobs) {
				t.Fatalf("flip %d.%d: invented jobs", i, bit)
			}
			for j, rj := range rep.Jobs {
				if rj.ID != ref.Jobs[j].ID {
					t.Fatalf("flip %d.%d: job %d is %s, want prefix job %s", i, bit, j, rj.ID, ref.Jobs[j].ID)
				}
				if rj.State == StateDone && rj.Outcome == nil {
					t.Fatalf("flip %d.%d: done job %s lost its outcome silently", i, bit, rj.ID)
				}
			}
		}
	}
}

func TestWALSegmentRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segment bound forces rotation nearly every record.
	w, _, err := OpenWAL(WALOptions{Dir: dir, segmentBytes: 256, NoSync: true, keepDone: 2})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	out := &Outcome{Energy: -1, Converged: true}
	for i := 0; i < 8; i++ {
		j := NewJob(segName(i), "h", Spec{Molecule: "h2"}, now)
		j.ID = walIDForTest(i)
		if err := w.AppendAccept(j, now); err != nil {
			t.Fatal(err)
		}
		if err := w.AppendState(j.ID, StateRunning, 1, "", nil, now); err != nil {
			t.Fatal(err)
		}
		if err := w.AppendState(j.ID, StateDone, 1, "", out, now); err != nil {
			t.Fatal(err)
		}
	}
	segsBefore := countSegs(t, dir)
	if segsBefore < 3 {
		t.Fatalf("only %d segments after 24 records with 256-byte bound", segsBefore)
	}
	rep, _, err := ReplayDir(dir)
	if err != nil || rep.Corrupt != nil {
		t.Fatalf("replay: %v / %v", err, rep.Corrupt)
	}
	if len(rep.Jobs) != 8 {
		t.Fatalf("replayed %d jobs, want 8", len(rep.Jobs))
	}
	// Compact: keepDone=2 keeps only the most recent two terminal jobs.
	if err := w.Compact(rep.Jobs); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n := countSegs(t, dir); n != 1 {
		t.Fatalf("%d segments after compaction, want 1", n)
	}
	rep2, _, err := ReplayDir(dir)
	if err != nil || rep2.Corrupt != nil {
		t.Fatalf("post-compact replay: %v / %v", err, rep2.Corrupt)
	}
	if len(rep2.Jobs) != 2 {
		t.Fatalf("post-compact replay has %d jobs, want 2", len(rep2.Jobs))
	}
	for _, j := range rep2.Jobs {
		if j.State != StateDone || j.Outcome == nil {
			t.Errorf("compacted job %s: state %s outcome %v", j.ID, j.State, j.Outcome)
		}
	}
}

func TestWALDisableDropsAppends(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(WALOptions{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	j := NewJob("job-000001", "h", Spec{Molecule: "h2"}, now)
	if err := w.AppendAccept(j, now); err != nil {
		t.Fatal(err)
	}
	w.Disable() // the SIGKILL instant
	j2 := NewJob("job-000002", "h2", Spec{Molecule: "h2"}, now)
	if err := w.AppendAccept(j2, now); err != nil {
		t.Fatalf("post-kill append errored instead of no-op: %v", err)
	}
	_ = w.Close()
	rep, _, err := ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 1 || rep.Jobs[0].ID != "job-000001" {
		t.Fatalf("post-kill state leaked to disk: %+v", rep.Jobs)
	}
}

func walIDForTest(i int) string { return FmtJobID(uint64(i + 1)) }

// bytesIndexByte and fmtSscanf keep the boundary scanner readable.
func bytesIndexByte(b []byte, c byte) int { return bytes.IndexByte(b, c) }

func fmtSscanf(header string, bodyLen *int, crc *uint32) (int, error) {
	return fmt.Sscanf(header, "rec len=%d crc32=%08x", bodyLen, crc)
}

func countSegs(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

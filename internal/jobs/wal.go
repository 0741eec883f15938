package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Write-ahead job log: every accepted Spec and every lifecycle
// transition is appended to a CRC-protected, fsync'd, segmented log
// before the corresponding in-memory state becomes client-visible, so a
// crashed server replays the log on boot and loses nothing that was
// acknowledged. The framing follows the HFCKPT checkpoint idiom
// (internal/scf/checkpoint.go): a versioned ASCII header whose length
// field makes truncation detectable before parsing, and a CRC-32 per
// record that makes any single-bit flip detectable.
//
// Segment format (one file, wal-NNNNNN.log):
//
//	HFWAL v1 seg=N\n                     segment header
//	rec len=N crc32=XXXXXXXX\n<body>\n    repeated; CRC-32 (IEEE) of body
//
// Replay folds records in file order. A torn or bit-flipped record stops
// replay at that point: everything before it is a consistent prefix
// (each record is atomic — it either fully counts or not at all), and
// the damage is reported, never panicked on. A record can only be torn
// at the tail of the last segment in a crash; corruption anywhere else
// is bit rot, which replay also refuses to read past — conservative by
// design, since records after a rotten region may reference state the
// rotten region created.

// walMagic opens every segment.
const walMagic = "HFWAL"

// Record types.
const (
	walAccept = "accept" // a Spec admitted to the queue
	walState  = "state"  // a lifecycle transition of an accepted job
)

// walRecord is one serialized log entry.
type walRecord struct {
	T       string   `json:"t"`
	ID      string   `json:"id"`
	Hash    string   `json:"hash,omitempty"`
	Spec    *Spec    `json:"spec,omitempty"`  // accept only
	State   State    `json:"state,omitempty"` // state only
	Attempt int      `json:"attempt,omitempty"`
	Err     string   `json:"err,omitempty"`
	Out     *Outcome `json:"out,omitempty"`
	TS      int64    `json:"ts,omitempty"`    // unix nanoseconds
	Trace   string   `json:"trace,omitempty"` // accept only: request trace ID
}

// WALOptions shapes a WAL.
type WALOptions struct {
	Dir    string // segment directory (created if absent); required
	NoSync bool   // skip the per-append fsync (tests, benchmarks)
	Tel    *telemetry.Session

	// A segment rotates past segmentBytes (1 MiB) and Compact retains the
	// keepDone (512) most recent terminal jobs; the package's tests shrink
	// both to reach rotation and compaction with a handful of records.
	segmentBytes int64
	keepDone     int
}

func (o WALOptions) withDefaults() WALOptions {
	if o.segmentBytes <= 0 {
		o.segmentBytes = 1 << 20
	}
	if o.keepDone <= 0 {
		o.keepDone = 512
	}
	return o
}

// WAL is an open write-ahead job log. All appends are serialized; a
// disabled WAL (crash simulation, see Disable) turns every append into a
// no-op exactly the way a SIGKILL would — nothing after the kill instant
// reaches disk.
type WAL struct {
	opt WALOptions

	mu       sync.Mutex
	f        *os.File
	seg      int
	size     int64
	disabled bool
}

// segName renders a segment file name; the fixed-width numeric suffix
// makes lexicographic directory order equal replay order.
func segName(n int) string { return fmt.Sprintf("wal-%06d.log", n) }

// OpenWAL replays every existing segment in dir and opens a fresh
// segment for appends. The returned Replay carries the reconstructed job
// table (and a description of any corruption found; see Replay.Corrupt).
// A new segment is always started so appends never extend a possibly
// torn tail.
func OpenWAL(opt WALOptions) (*WAL, *Replay, error) {
	opt = opt.withDefaults()
	if opt.Dir == "" {
		return nil, nil, fmt.Errorf("jobs: wal: no directory configured")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("jobs: wal: %w", err)
	}
	rep, lastSeg, err := ReplayDir(opt.Dir)
	if err != nil {
		return nil, nil, err
	}
	w := &WAL{opt: opt, seg: lastSeg}
	if err := w.rotateLocked(); err != nil {
		return nil, nil, err
	}
	if tel := opt.Tel; tel != nil {
		tel.Counter("svc.wal.replayed_jobs").Add(int64(len(rep.Jobs)))
		tel.Counter("svc.wal.replayed_records").Add(int64(rep.Records))
		if rep.DiscardedBytes > 0 {
			tel.Counter("svc.wal.corrupt_tail_bytes").Add(int64(rep.DiscardedBytes))
		}
	}
	return w, rep, nil
}

// rotateLocked closes the current segment and opens the next one. The
// caller holds mu (or is the constructor).
func (w *WAL) rotateLocked() error {
	if w.f != nil {
		if !w.opt.NoSync {
			_ = w.f.Sync()
		}
		_ = w.f.Close()
	}
	w.seg++
	path := filepath.Join(w.opt.Dir, segName(w.seg))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: wal: opening segment: %w", err)
	}
	header := fmt.Sprintf("%s v1 seg=%d\n", walMagic, w.seg)
	if _, err := f.WriteString(header); err != nil {
		f.Close()
		return fmt.Errorf("jobs: wal: writing segment header: %w", err)
	}
	w.f = f
	w.size = int64(len(header))
	w.opt.Tel.Gauge("svc.wal.segment").Set(float64(w.seg))
	return nil
}

// frame encodes one record as it lies in a segment:
// "rec len=N crc32=XXXXXXXX\n<body>\n".
func frame(rec walRecord) ([]byte, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("jobs: wal: encoding record: %w", err)
	}
	buf := fmt.Appendf(nil, "rec len=%d crc32=%08x\n", len(body), crc32.ChecksumIEEE(body))
	buf = append(buf, body...)
	return append(buf, '\n'), nil
}

// append frames, writes, and (unless NoSync) fsyncs one record.
func (w *WAL) append(rec walRecord) error {
	if w == nil {
		return nil
	}
	buf, err := frame(rec)
	if err != nil {
		return err
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.disabled {
		return nil
	}
	if w.f == nil {
		return fmt.Errorf("jobs: wal: closed")
	}
	if w.size > w.opt.segmentBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := w.f.Write(buf)
	w.size += int64(n)
	if err != nil {
		return fmt.Errorf("jobs: wal: append: %w", err)
	}
	if !w.opt.NoSync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("jobs: wal: fsync: %w", err)
		}
	}
	if tel := w.opt.Tel; tel != nil {
		tel.Counter("svc.wal.appends").Add(1)
		tel.Counter("svc.wal.bytes").Add(int64(len(buf)))
	}
	return nil
}

// AppendAccept logs the admission of job j — call before acknowledging
// the submission to the client.
func (w *WAL) AppendAccept(j *Job, now time.Time) error {
	if w == nil {
		return nil
	}
	spec := j.Spec
	return w.append(walRecord{T: walAccept, ID: j.ID, Hash: j.Hash, Spec: &spec,
		TS: now.UnixNano(), Trace: j.Trace})
}

// AppendState logs a lifecycle transition — call before the transition
// becomes client-visible (persist, then serve).
func (w *WAL) AppendState(id string, st State, attempt int, errMsg string, out *Outcome, now time.Time) error {
	if w == nil {
		return nil
	}
	return w.append(walRecord{T: walState, ID: id, State: st, Attempt: attempt,
		Err: errMsg, Out: out, TS: now.UnixNano()})
}

// Disable makes every subsequent append a silent no-op — the crash
// simulator's SIGKILL point: in-memory state may keep evolving for a few
// microseconds while goroutines unwind, but none of it reaches disk.
func (w *WAL) Disable() {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.disabled = true
	w.mu.Unlock()
}

// Segments returns how many wal-*.log segment files are on disk —
// surfaced by the readiness endpoint so operators can see compaction
// keeping up.
func (w *WAL) Segments() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	segs, _ := listSegments(w.opt.Dir)
	return len(segs)
}

// Close syncs and closes the current segment.
func (w *WAL) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	if !w.opt.NoSync {
		_ = w.f.Sync()
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// Compact rewrites the log to a single fresh segment holding the given
// authoritative job table — non-terminal jobs in full, plus the most
// recent keepDone terminal jobs (so replay still dedups recent
// resubmissions against their recorded results) — then deletes every
// older segment. Write-new-then-delete-old ordering means a crash during
// compaction leaves a superset of the needed records, never a subset.
func (w *WAL) Compact(table []*ReplayJob) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.disabled || w.f == nil {
		return nil
	}
	// Partition and bound the terminal history.
	var live, done []*ReplayJob
	for _, rj := range table {
		if rj.State.Terminal() {
			done = append(done, rj)
		} else {
			live = append(live, rj)
		}
	}
	if len(done) > w.opt.keepDone {
		done = done[len(done)-w.opt.keepDone:]
	}
	oldest := w.firstSegLocked()
	if err := w.rotateLocked(); err != nil {
		return err
	}
	for _, rj := range append(live, done...) {
		spec := rj.Spec
		if err := w.appendLocked(walRecord{T: walAccept, ID: rj.ID, Hash: rj.Hash,
			Spec: &spec, TS: rj.Submitted.UnixNano(), Trace: rj.Trace}); err != nil {
			return err
		}
		if rj.State != StateQueued {
			if err := w.appendLocked(walRecord{T: walState, ID: rj.ID, State: rj.State,
				Attempt: rj.Attempts, Err: rj.Error, Out: rj.Outcome,
				TS: rj.Finished.UnixNano()}); err != nil {
				return err
			}
		}
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("jobs: wal: compact fsync: %w", err)
	}
	// The new segment is durable; the old ones are now redundant.
	for seg := oldest; seg < w.seg; seg++ {
		_ = os.Remove(filepath.Join(w.opt.Dir, segName(seg)))
	}
	w.opt.Tel.Counter("svc.wal.compactions").Add(1)
	return nil
}

// appendLocked is append without the lock or rotation — used by Compact,
// which already holds mu and wants all records in one segment.
func (w *WAL) appendLocked(rec walRecord) error {
	buf, err := frame(rec)
	if err != nil {
		return err
	}
	n, err := w.f.Write(buf)
	w.size += int64(n)
	if err != nil {
		return fmt.Errorf("jobs: wal: append: %w", err)
	}
	return nil
}

// firstSegLocked returns the lowest segment number present on disk (or
// the current one when the directory scan fails).
func (w *WAL) firstSegLocked() int {
	if segs, err := listSegments(w.opt.Dir); err == nil && len(segs) > 0 && segs[0] < w.seg {
		return segs[0]
	}
	return w.seg
}

// listSegments returns the numbers of the segment files in dir in replay
// order: the one directory scan behind ReplayDir, Segments and Compact.
// Only names segName writes count.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []int
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "wal-%06d.log", &n); err == nil && e.Name() == segName(n) {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// ReplayJob is one job reconstructed from the log.
type ReplayJob struct {
	ID        string
	Hash      string
	Spec      Spec
	Trace     string // original request trace ID, surviving replay
	State     State
	Attempts  int
	Error     string
	Outcome   *Outcome
	Submitted time.Time
	Finished  time.Time
}

// Replay is the result of folding a WAL directory: the job table in
// acceptance order plus an account of what was read and what was
// damaged.
type Replay struct {
	Jobs     []*ReplayJob
	MaxID    uint64 // highest numeric job-NNNNNN suffix seen
	Records  int
	Segments int
	// Corrupt describes the first framing or checksum violation hit, if
	// any; Jobs then holds the consistent prefix before it. A clean crash
	// (torn final record) and bit rot both land here — replay never
	// panics and never reads past damage.
	Corrupt error
	// DiscardedBytes counts what replay left unread: the damaged
	// segment from the damage on, plus every later segment whole.
	DiscardedBytes int
}

// Pending returns the non-terminal jobs — the backlog to re-enqueue on
// boot — in acceptance order. A job whose recorded state is done, failed,
// or canceled is never in this list: replay dedups finished work against
// the log instead of running it twice.
func (r *Replay) Pending() []*ReplayJob {
	var out []*ReplayJob
	for _, j := range r.Jobs {
		if !j.State.Terminal() {
			out = append(out, j)
		}
	}
	return out
}

// DoneCount returns how many replayed jobs carry a recorded terminal
// done state.
func (r *Replay) DoneCount() int {
	n := 0
	for _, j := range r.Jobs {
		if j.State == StateDone {
			n++
		}
	}
	return n
}

// ReplayDir folds every segment in dir (no WAL handle needed — usable
// for offline inspection). It returns the replay, the highest segment
// number seen, and an error only for I/O failures; corruption is
// reported in Replay.Corrupt with the consistent prefix retained.
func ReplayDir(dir string) (*Replay, int, error) {
	segs, err := listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return &Replay{}, 0, nil
		}
		return nil, 0, fmt.Errorf("jobs: wal: reading %s: %w", dir, err)
	}
	lastSeg := 0
	if len(segs) > 0 {
		lastSeg = segs[len(segs)-1]
	}

	rep := &Replay{Segments: len(segs)}
	byID := make(map[string]*ReplayJob)
	stopped := false
	for _, n := range segs {
		name := segName(n)
		path := filepath.Join(dir, name)
		if stopped {
			// Replay stopped at earlier damage: this segment is dropped
			// whole, and its bytes count as discarded.
			fi, err := os.Stat(path)
			if err != nil {
				return nil, 0, fmt.Errorf("jobs: wal: reading %s: %w", name, err)
			}
			rep.DiscardedBytes += int(fi.Size())
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, 0, fmt.Errorf("jobs: wal: reading %s: %w", name, err)
		}
		stopped = replaySegment(rep, byID, name, raw)
	}
	return rep, lastSeg, nil
}

// replaySegment folds one segment's records into rep, returning true if
// replay must stop (corruption — nothing after it is trustworthy).
func replaySegment(rep *Replay, byID map[string]*ReplayJob, name string, raw []byte) bool {
	corrupt := func(off int, format string, args ...any) bool {
		rep.Corrupt = fmt.Errorf("jobs: wal: %s at byte %d: %s", name, off, fmt.Sprintf(format, args...))
		rep.DiscardedBytes += len(raw) - off
		return true
	}
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return corrupt(0, "segment header truncated")
	}
	var version, seg int
	if _, err := fmt.Sscanf(string(raw[:nl]), walMagic+" v%d seg=%d", &version, &seg); err != nil {
		return corrupt(0, "malformed segment header %q", string(raw[:nl]))
	}
	if version != 1 {
		return corrupt(0, "unsupported wal version %d (this build reads v1)", version)
	}
	off := nl + 1
	for off < len(raw) {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			return corrupt(off, "torn record header")
		}
		header := string(raw[off : off+nl])
		var bodyLen int
		var storedCRC uint32
		// Strict match: leniency here would let a bit flip in the framing
		// itself slip through.
		if _, err := fmt.Sscanf(header, "rec len=%d crc32=%08x", &bodyLen, &storedCRC); err != nil ||
			header != fmt.Sprintf("rec len=%d crc32=%08x", bodyLen, storedCRC) {
			return corrupt(off, "malformed record header %q", header)
		}
		bodyStart := off + nl + 1
		if bodyLen < 0 || bodyLen > len(raw)-bodyStart-1 { // not bodyStart+bodyLen+1: a huge len= overflows
			return corrupt(off, "torn record: header claims %d body bytes, %d present",
				bodyLen, len(raw)-bodyStart)
		}
		body := raw[bodyStart : bodyStart+bodyLen]
		if raw[bodyStart+bodyLen] != '\n' {
			return corrupt(off, "record missing terminator")
		}
		if got := crc32.ChecksumIEEE(body); got != storedCRC {
			return corrupt(off, "record CRC mismatch: stored %08x, computed %08x (bit-flipped on disk?)",
				storedCRC, got)
		}
		var rec walRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			return corrupt(off, "record body unreadable despite valid CRC: %v", err)
		}
		foldRecord(rep, byID, rec)
		rep.Records++
		off = bodyStart + bodyLen + 1
	}
	return false
}

// foldRecord applies one valid record to the job table. Records that
// reference unknown jobs or make illegal transitions are tolerated (the
// table keeps its last consistent view): the log is an append-only
// journal, and a replayer that crashed mid-compaction may legitimately
// see a terminal record twice.
func foldRecord(rep *Replay, byID map[string]*ReplayJob, rec walRecord) {
	switch rec.T {
	case walAccept:
		if rec.Spec == nil || rec.ID == "" {
			return
		}
		if _, dup := byID[rec.ID]; dup {
			return // compaction crash artifact: same accept twice
		}
		rj := &ReplayJob{ID: rec.ID, Hash: rec.Hash, Spec: *rec.Spec, Trace: rec.Trace,
			State: StateQueued, Submitted: time.Unix(0, rec.TS)}
		byID[rec.ID] = rj
		rep.Jobs = append(rep.Jobs, rj)
		var n uint64
		if _, err := fmt.Sscanf(rec.ID, "job-%d", &n); err == nil && n > rep.MaxID {
			rep.MaxID = n
		}
	case walState:
		rj := byID[rec.ID]
		if rj == nil || rj.State.Terminal() {
			return // unknown job or a duplicate terminal record: keep the first
		}
		rj.State = rec.State
		if rec.Attempt > rj.Attempts {
			rj.Attempts = rec.Attempt
		}
		if rec.Err != "" {
			rj.Error = rec.Err
		}
		if rec.Out != nil {
			rj.Outcome = rec.Out
		}
		if rj.State.Terminal() {
			rj.Finished = time.Unix(0, rec.TS)
		}
	}
}

package telemetry

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fakeClock returns a deterministic clock advancing 1ms per reading.
func fakeClock() func() time.Time {
	base := time.Unix(0, 0)
	n := 0
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

// Complete records an untraced span [start, end) on lane (pid, tid) at
// times the test chooses.
func (r *Recorder) Complete(cat, name string, pid, tid int, start, end time.Time, args map[string]any) {
	r.record(Event{Name: name, Cat: cat, Ph: PhaseComplete, Pid: pid, Tid: tid, Args: args}, start, end)
}

// Instant records an untraced point event on lane (pid, tid) now.
func (r *Recorder) Instant(cat, name string, pid, tid int, args map[string]any) {
	if r == nil {
		return
	}
	now := r.now()
	r.record(Event{Name: name, Cat: cat, Ph: PhaseInstant, S: "t", Pid: pid, Tid: tid, Args: args}, now, now)
}

// buildSampleTrace records a deterministic two-rank trace with nested
// spans (scf.iter > fock.build > fock.task/mpi.op) and an instant.
func buildSampleTrace() *Recorder {
	rec := NewRecorderWithClock(fakeClock(), 100) // start = 1ms
	for _, pid := range []int{0, 1} {
		rec.Complete("scf.iter", "iteration", pid, 0, at(10), at(90),
			map[string]any{"iter": 1, "energy": -74.96, "dE": math.Inf(-1)})
		rec.Complete("fock.build", "shared-fock", pid, 0, at(12), at(80), nil)
		rec.Complete("dlb.draw", "dlbnext", pid, 0, at(13), at(14), nil)
		rec.Complete("fock.task", "ij-task", pid, 1, at(15), at(40), map[string]any{"i": 2, "j": 1})
		rec.Complete("fock.task", "ij-task", pid, 2, at(15), at(45), map[string]any{"i": 2, "j": 1})
		rec.Complete("mpi.op", "allreduce", pid, 0, at(60), at(78), nil)
		rec.Complete("mpi.op", "recv", pid, 0, at(62), at(70), nil)
	}
	rec.Instant("recovery.reissue", "lease-steal", 0, 0, map[string]any{"task": 7})
	return rec
}

func TestGoldenTrace(t *testing.T) {
	rec := buildSampleTrace()
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_trace.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace JSON differs from golden file %s\ngot:\n%s", golden, buf.String())
	}

	// The emitted JSON must independently pass structural validation.
	stats, err := ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Spans != 14 || stats.Instants != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// Required span taxonomy for a full run.
	for _, cat := range []string{"scf.iter", "fock.build", "fock.task", "mpi.op", "dlb.draw"} {
		if stats.Categories[cat] == 0 {
			t.Errorf("category %q missing", cat)
		}
	}
	// Lanes: 2 pids x (tid 0,1,2) = 6.
	if stats.Lanes != 6 {
		t.Fatalf("lanes = %d, want 6", stats.Lanes)
	}
	// Depth on tid 0: scf.iter > fock.build > mpi.op(allreduce) > mpi.op(recv).
	if stats.MaxDepth != 4 {
		t.Fatalf("max depth = %d, want 4", stats.MaxDepth)
	}
}

func TestValidateTraceRejectsOverlap(t *testing.T) {
	rec := NewRecorderWithClock(fakeClock(), 100)
	// Two spans on the same lane that overlap without nesting.
	rec.Complete("a", "first", 0, 0, at(10), at(50), nil)
	rec.Complete("a", "second", 0, 0, at(30), at(70), nil)
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateTrace(buf.Bytes()); err == nil {
		t.Fatal("overlapping spans on one lane must fail validation")
	}
	// The same intervals on different lanes are fine.
	rec2 := NewRecorderWithClock(fakeClock(), 100)
	rec2.Complete("a", "first", 0, 0, at(10), at(50), nil)
	rec2.Complete("a", "second", 0, 1, at(30), at(70), nil)
	buf.Reset()
	if err := rec2.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("distinct lanes must not conflict: %v", err)
	}
}

func TestValidateTraceRejectsGarbage(t *testing.T) {
	if _, err := ValidateTrace([]byte("not json")); err == nil {
		t.Fatal("want parse error")
	}
	if _, err := ValidateTrace([]byte(`{"traceEvents":[]}`)); err == nil {
		t.Fatal("want empty-trace error")
	}
	if _, err := ValidateTrace([]byte(`{"traceEvents":[{"name":"x"}]}`)); err == nil {
		t.Fatal("want missing-phase error")
	}
}

func TestRecorderCapAndDropCount(t *testing.T) {
	rec := NewRecorderWithClock(fakeClock(), 3)
	for i := 0; i < 10; i++ {
		rec.Instant("c", "e", 0, 0, nil)
	}
	if got := len(rec.Events()); got != 3 {
		t.Fatalf("buffered = %d, want 3", got)
	}
	if rec.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", rec.Dropped())
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("droppedEvents")) {
		t.Fatal("dropped count missing from trace otherData")
	}
}

func TestConcurrentRecording(t *testing.T) {
	s := NewSession()
	barrier := s.Histogram("mpi.op.barrier_ns")
	const goroutines = 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Start("mpi.op", "barrier", g, 0, barrier).End(nil)
				s.Instant("recovery.reissue", "steal", g, 0, nil)
				s.Start("fock.build", "shared-fock", g, 0, nil).End(map[string]any{"tasks": int64(1), "quartets": int64(2)})
			}
		}(g)
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	stats, err := ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Spans != 2*goroutines*200 || stats.Instants != goroutines*200 {
		t.Fatalf("stats = %+v", stats)
	}
	if got := s.Histogram("mpi.op.barrier_ns").Count(); got != goroutines*200 {
		t.Fatalf("hist count = %d", got)
	}
}

func TestSanitizeNonFiniteArgs(t *testing.T) {
	rec := NewRecorderWithClock(fakeClock(), 10)
	rec.Complete("c", "s", 0, 0, at(1), at(2),
		map[string]any{"inf": math.Inf(1), "ninf": math.Inf(-1), "nan": math.NaN(), "ok": 1.5})
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatalf("non-finite args must not break JSON export: %v", err)
	}
	ev := rec.Events()[0]
	if ev.Args["ok"] != 1.5 {
		t.Fatalf("finite arg altered: %v", ev.Args["ok"])
	}
	for _, k := range []string{"inf", "ninf", "nan"} {
		if _, isString := ev.Args[k].(string); !isString {
			t.Fatalf("arg %q not stringified: %v", k, ev.Args[k])
		}
	}
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestSpanAllocatesNothing: a span on a nil session, and a timed span
// with nil args on a traced session whose ring is full, allocate nothing
// — no closure, no args map for the trace ID, no ring growth.
func TestSpanAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not held under the race detector")
	}
	var off *Session
	if n := testing.AllocsPerRun(100, func() { off.Start("mpi.op", "recv", 0, 0, nil).End(nil) }); n != 0 {
		t.Errorf("a span on a nil session allocates %v times", n)
	}
	s := &Session{Registry: NewRegistry(), Recorder: NewRecorderWithClock(time.Now, 4)}
	traced := s.WithTrace("feedface00000001")
	hist := s.Histogram("mpi.op.recv_ns")
	for range 4 {
		traced.Instant("c", "fill", 0, 0, nil)
	}
	if n := testing.AllocsPerRun(100, func() { traced.Start("mpi.op", "recv", 0, 0, hist).End(nil) }); n != 0 {
		t.Errorf("a timed span on a traced session with a full ring allocates %v times", n)
	}
	events := s.Recorder.Events()
	if hist.Count() != 101 || s.Recorder.Dropped() != 101 || events[3].Trace != "feedface00000001" {
		t.Errorf("histogram count %d, dropped %d, last event %+v: want 101, 101 and a traced span",
			hist.Count(), s.Recorder.Dropped(), events[3])
	}
	// A Fock task's span: two integer args, held unboxed in the ring and
	// read back in Args as a map of ints gives them.
	task := func() {
		traced.Start("fock.task", "ij-task", 0, 1, nil).EndInts(IntArg{"i", 7}, IntArg{"j", 3})
	}
	if n := testing.AllocsPerRun(100, task); n != 0 {
		t.Errorf("a traced span ended with two int args allocates %v times", n)
	}
	last := s.Recorder.Events()[3]
	if last.Args["i"] != 7 || last.Args["j"] != 3 || len(last.Args) != 2 || last.Trace != "feedface00000001" {
		t.Errorf("the task span reads back as %+v, want args i = 7, j = 3 and the trace ID", last)
	}
	var buf bytes.Buffer
	if err := s.Recorder.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"args": {
    "i": 7,
    "j": 3
   }`) {
		t.Errorf("the trace export renders the task span's args otherwise:\n%s", buf.String())
	}
	// A Fock build's span: its load share ends it the same way, and the
	// imbalance table reads it back.
	build := func() {
		traced.Start("fock.build", "mpi-only", 0, 0, nil).EndInts(IntArg{"tasks", 9}, IntArg{"quartets", 120})
	}
	if n := testing.AllocsPerRun(100, build); n != 0 {
		t.Errorf("an ended build span allocates %v times", n)
	}
	if rows := Imbalance(s.Recorder.Events()[3:]); len(rows) != 1 || rows[0].Builds[0].TotalTasks != 9 ||
		rows[0].Builds[0].TotalQuartets != 120 {
		t.Errorf("the build span reads back as %+v, want 9 tasks and 120 quartets", rows)
	}
}

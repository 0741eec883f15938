package telemetry

import (
	"math"
	"strings"
	"testing"
	"time"
)

// recordBuild records one rank's share of one build the way the SCF
// layer does: a fock.build span named by variant on the rank's lane,
// tasks and quartets in its args, the wall time as its duration.
func recordBuild(rec *Recorder, variant string, rank int, tasks, quartets int64, wall time.Duration) {
	start := rec.Now()
	rec.Complete("fock.build", variant, rank, 0, start, start.Add(wall),
		map[string]any{"tasks": tasks, "quartets": quartets})
}

func newTestRecorder() *Recorder {
	t0 := time.Unix(0, 0)
	return NewRecorderWithClock(func() time.Time { return t0 }, 0)
}

func TestImbalancePerfectBalance(t *testing.T) {
	rec := newTestRecorder()
	for rank := 0; rank < 4; rank++ {
		recordBuild(rec, "shared-fock", rank, 10, 100, time.Millisecond)
	}
	rows := Imbalance(rec.Events())
	if len(rows) != 1 || len(rows[0].Builds) != 1 {
		t.Fatalf("rows = %+v", rows)
	}
	b := rows[0].Builds[0]
	if b.Ranks != 4 || b.TaskFactor != 1 || b.QuartetFactor != 1 || b.WallFactor != 1 {
		t.Fatalf("build = %+v", b)
	}
	if b.TotalTasks != 40 || b.TotalQuartets != 400 {
		t.Fatalf("totals = %+v", b)
	}
	if b.MaxWall != time.Millisecond {
		t.Fatalf("max wall = %v, want 1ms", b.MaxWall)
	}
}

func TestImbalanceFactorAndSequencing(t *testing.T) {
	rec := newTestRecorder()
	// Build 1: rank 0 does 30 tasks, rank 1 does 10 -> mean 20, max 30.
	recordBuild(rec, "mpi-only", 0, 30, 0, 0)
	recordBuild(rec, "mpi-only", 1, 10, 0, 0)
	// Build 2 (each rank's second span): perfectly balanced.
	recordBuild(rec, "mpi-only", 1, 20, 0, 0)
	recordBuild(rec, "mpi-only", 0, 20, 0, 0)
	rows := Imbalance(rec.Events())
	if len(rows) != 1 || len(rows[0].Builds) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if got := rows[0].Builds[0].TaskFactor; math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("build 1 factor = %v, want 1.5", got)
	}
	if got := rows[0].Builds[1].TaskFactor; got != 1 {
		t.Fatalf("build 2 factor = %v, want 1", got)
	}
	if got := rows[0].MeanTaskFactor; math.Abs(got-1.25) > 1e-12 {
		t.Fatalf("mean factor = %v, want 1.25", got)
	}
	if got := rows[0].MaxTaskFactor; math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("max factor = %v, want 1.5", got)
	}
}

func TestImbalanceMultipleVariantsSorted(t *testing.T) {
	rec := newTestRecorder()
	recordBuild(rec, "shared-fock", 0, 1, 0, 0)
	recordBuild(rec, "mpi-only", 0, 1, 0, 0)
	rows := Imbalance(rec.Events())
	if len(rows) != 2 || rows[0].Variant != "mpi-only" || rows[1].Variant != "shared-fock" {
		t.Fatalf("variants not sorted: %+v", rows)
	}
}

// TestImbalanceReadsOnlyBuildSpans: other spans and instants in the ring,
// and a fock.build instant, are not builds.
func TestImbalanceReadsOnlyBuildSpans(t *testing.T) {
	rec := newTestRecorder()
	start := rec.Now()
	rec.Complete("scf.iter", "mpi-only", 0, 0, start, start.Add(time.Second), nil)
	rec.Complete("fock.task", "mpi-only", 0, 1, start, start.Add(time.Second), map[string]any{"tasks": int64(9)})
	rec.Instant("fock.build", "mpi-only", 0, 0, nil)
	recordBuild(rec, "mpi-only", 0, 3, 30, time.Millisecond)
	rows := Imbalance(rec.Events())
	if len(rows) != 1 || len(rows[0].Builds) != 1 || rows[0].Builds[0].TotalTasks != 3 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestFormatImbalance(t *testing.T) {
	rec := newTestRecorder()
	recordBuild(rec, "shared-fock", 0, 30, 300, 3*time.Millisecond)
	recordBuild(rec, "shared-fock", 1, 10, 100, time.Millisecond)
	out := FormatImbalance(Imbalance(rec.Events()))
	for _, want := range []string{"shared-fock", "task-imb", "1.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if got := FormatImbalance(nil); !strings.Contains(got, "no builds") {
		t.Errorf("empty report = %q", got)
	}
}

func TestSessionSummaryIncludesEverything(t *testing.T) {
	s := NewSession()
	s.Counter("ddi.dlb.draws").Add(42)
	s.Histogram("mpi.op.recv_ns").Observe(1500)
	s.Histogram("mpi.send.bytes").Observe(4096)
	recordBuild(s.Recorder, "mpi-only", 0, 5, 50, time.Millisecond)
	recordBuild(s.Recorder, "mpi-only", 1, 5, 50, time.Millisecond)
	sum := s.Summary()
	for _, want := range []string{
		"telemetry summary", "load imbalance", "mpi-only",
		"ddi.dlb.draws", "42", "mpi.op.recv_ns", "mpi.send.bytes", "4,096",
	} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
	// Duration-valued histograms render as durations, byte ones as counts.
	if !strings.Contains(sum, "1.5µs") {
		t.Errorf("ns histogram not rendered as duration:\n%s", sum)
	}
}

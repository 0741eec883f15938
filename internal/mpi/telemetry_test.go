package mpi

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestRunTelemetry checks that a telemetry-instrumented run records
// per-op spans, payload histograms, and barrier skew, and that the
// emitted trace validates.
func TestRunTelemetry(t *testing.T) {
	tel := telemetry.NewSession()
	rep, err := RunWithOptions(4, RunOptions{Telemetry: tel}, func(c *Comm) {
		buf := []float64{float64(c.Rank())}
		c.Barrier()
		c.AllreduceSumInPlace(buf)
		if buf[0] != 6 {
			t.Errorf("allreduce = %v", buf[0])
		}
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		}
		if c.Rank() == 1 {
			data, _, _ := c.Recv(0, 7)
			if len(data) != 3 {
				t.Errorf("recv len = %d", len(data))
			}
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Completed) != 4 {
		t.Fatalf("completed = %v", rep.Completed)
	}

	if got := tel.Counter("mpi.send.msgs").Value(); got == 0 {
		t.Fatal("no sends counted")
	}
	for _, h := range []string{"mpi.op.barrier_ns", "mpi.op.allreduce_ns", "mpi.barrier.skew_ns"} {
		if tel.Histogram(h).Count() == 0 {
			t.Errorf("histogram %q empty", h)
		}
	}
	// 2 explicit barriers x 4 ranks; collectives add internal sends but
	// not extra Barrier calls.
	if got := tel.Histogram("mpi.op.barrier_ns").Count(); got != 8 {
		t.Errorf("barrier spans = %d, want 8", got)
	}

	var buf bytes.Buffer
	if err := tel.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	stats, err := telemetry.ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Categories["mpi.op"] == 0 {
		t.Fatal("no mpi.op spans in trace")
	}
}

func TestRunReportRankWall(t *testing.T) {
	rep, err := RunWithOptions(3, RunOptions{}, func(c *Comm) {
		if c.Rank() == 2 {
			time.Sleep(20 * time.Millisecond)
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RankWall) != 3 {
		t.Fatalf("rank wall entries = %d", len(rep.RankWall))
	}
	for r, w := range rep.RankWall {
		if w <= 0 {
			t.Errorf("rank %d wall = %v", r, w)
		}
		// All ranks waited for the sleeper at the barrier.
		if w < 15*time.Millisecond {
			t.Errorf("rank %d wall %v below the sleeping rank's floor", r, w)
		}
	}
}

func TestRecoveryCountsAndOutcomes(t *testing.T) {
	plan := &FaultPlan{Kills: []Kill{{Rank: 1, Site: SiteBarrier, After: 1}}}
	rep, err := RunWithOptions(3, RunOptions{Deadline: 2 * time.Second, Fault: plan}, func(c *Comm) {
		c.Barrier()
	})
	if err == nil {
		t.Fatal("want run error after injected kill")
	}
	ev := rep.RecoveryCounts()
	if ev.Kills != 1 {
		t.Fatalf("kills = %d, want 1", ev.Kills)
	}
	if ev.Unwound != 2 {
		t.Fatalf("unwound = %d, want 2", ev.Unwound)
	}
	if got := rep.OutcomeOf(1); got != "killed" {
		t.Fatalf("rank 1 outcome = %q", got)
	}
	for _, r := range []int{0, 2} {
		if got := rep.OutcomeOf(r); got != "unwound" {
			t.Fatalf("rank %d outcome = %q", r, got)
		}
	}
	if rep.OutcomeOf(99) != "unknown" {
		t.Fatal("out-of-range rank should be unknown")
	}
	if len(rep.RankWall) != 3 {
		t.Fatalf("rank wall entries = %d", len(rep.RankWall))
	}
	for r, w := range rep.RankWall {
		if w <= 0 {
			t.Errorf("rank %d wall = %v", r, w)
		}
	}
}

// TestTelemetryDisabledIsInert confirms a nil session changes nothing:
// the instrumentation hooks must be invisible when telemetry is off.
func TestTelemetryDisabledIsInert(t *testing.T) {
	err := Run(2, func(c *Comm) {
		if c.Telemetry() != nil {
			t.Error("telemetry should be nil for plain Run")
		}
		buf := []float64{1}
		c.AllreduceSumInPlace(buf)
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllreduceAllocatesNoCopy: a one-rank gsumf reduces into its buffer
// in place, so the bytes it allocates do not grow with the buffer.
func TestAllreduceAllocatesNoCopy(t *testing.T) {
	perCall := func(n int) uint64 {
		var bytes uint64
		if err := Run(1, func(c *Comm) {
			buf := make([]float64, n)
			c.AllreduceSumInPlace(buf) // warm
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range 20 {
				c.AllreduceSumInPlace(buf)
			}
			runtime.ReadMemStats(&after)
			bytes = (after.TotalAlloc - before.TotalAlloc) / 20
		}); err != nil {
			t.Fatal(err)
		}
		return bytes
	}
	small, large := perCall(16), perCall(1<<15)
	if large > small+1024 {
		t.Errorf("AllreduceSumInPlace allocates %d B per call on 16 floats, %d B on %d floats", small, large, 1<<15)
	}
}

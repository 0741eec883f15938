package mpi

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestEverySingleBitFlipDetectedInCollective is the transport-level
// detection property: a single bit flipped in a Bcast payload — any
// element, any bit — is always detected by the receiver's checksum
// verification and repaired by retransmission, never silently absorbed.
// Bcast exercises the collective path (tree of point-to-point sends), so
// this transitively covers the framing every collective inherits.
func TestEverySingleBitFlipDetectedInCollective(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	payload := make([]float64, 256)
	for i := range payload {
		payload[i] = rng.NormFloat64()
	}
	// Sweep bits exhaustively and sample elements; one run per flip keeps
	// the per-rank event counters aligned with the schedule.
	for _, idx := range []int{0, 1, 127, 255} {
		for bit := 0; bit < 64; bit++ {
			tel := telemetry.NewSession()
			plan := &FaultPlan{Corrupts: []Corrupt{
				{Rank: 0, Site: SiteSend, After: 1, Kind: CorruptBitFlip, Index: idx, Bit: bit},
			}}
			_, err := RunWithOptions(4, RunOptions{Fault: plan, Telemetry: tel}, func(c *Comm) {
				buf := append([]float64(nil), payload...)
				c.Bcast(0, buf)
				for i, v := range buf {
					if v != payload[i] {
						t.Errorf("idx=%d bit=%d: corrupted value %v at %d reached a rank", idx, bit, v, i)
					}
				}
			})
			if err != nil {
				t.Fatalf("idx=%d bit=%d: run failed: %v", idx, bit, err)
			}
			snap := tel.Registry.Snapshot()
			if snap.Counters["sdc.injected"] != 1 || snap.Counters["sdc.detected"] != 1 {
				t.Fatalf("idx=%d bit=%d: injected=%d detected=%d, want 1/1",
					idx, bit, snap.Counters["sdc.injected"], snap.Counters["sdc.detected"])
			}
			if snap.Counters["sdc.recovered"] != 1 {
				t.Fatalf("idx=%d bit=%d: corruption not recovered by retransmission", idx, bit)
			}
		}
	}
}

// TestCorruptionDetectedOnReduceAndGather verifies the framing holds on
// the reduction-tree path too (receive sites deeper in the tree), and
// that NaN poison in flight is equally caught.
func TestCorruptionDetectedOnReduceAndGather(t *testing.T) {
	for _, kind := range []CorruptionKind{CorruptBitFlip, CorruptNaN} {
		tel := telemetry.NewSession()
		plan := &FaultPlan{Corrupts: []Corrupt{
			{Rank: 3, Site: SiteSend, After: 1, Kind: kind, Index: 2, Bit: 51},
		}}
		_, err := RunWithOptions(4, RunOptions{Fault: plan, Telemetry: tel}, func(c *Comm) {
			buf := []float64{1, 2, 3, 4}
			c.AllreduceSumInPlace(buf)
			for i, v := range buf {
				if v != float64(4*(i+1)) {
					t.Errorf("kind=%v: allreduce slot %d = %v, want %v", kind, i, v, 4*(i+1))
				}
			}
		})
		if err != nil {
			t.Fatalf("kind=%v: %v", kind, err)
		}
		snap := tel.Registry.Snapshot()
		if snap.Counters["sdc.detected"] != snap.Counters["sdc.injected"] || snap.Counters["sdc.injected"] == 0 {
			t.Fatalf("kind=%v: injected=%d detected=%d", kind,
				snap.Counters["sdc.injected"], snap.Counters["sdc.detected"])
		}
	}
}

// TestPersistentCorruptionEscalates drives the retry budget to
// exhaustion: a corruption that repeats on every retransmission must
// escalate to a KindCorrupted RankFailure (unwrapping to ErrRankFailed)
// so the shrink-restart recovery path takes over, and the dead receiver
// must be counted in DeadRanks.
func TestPersistentCorruptionEscalates(t *testing.T) {
	tel := telemetry.NewSession()
	plan := &FaultPlan{Corrupts: []Corrupt{
		{Rank: 0, Site: SiteSend, After: 1, Kind: CorruptBitFlip, Index: 0, Bit: 7, Repeat: 100},
	}}
	rep, err := RunWithOptions(2, RunOptions{Fault: plan, Telemetry: tel, Deadline: 2 * time.Second},
		func(c *Comm) {
			if c.Rank() == 0 {
				c.Send(1, 5, []float64{3.14})
			} else {
				c.Recv(0, 5)
			}
		})
	if err == nil {
		t.Fatal("persistent corruption did not fail the run")
	}
	if !errors.Is(err, ErrRankFailed) {
		t.Fatalf("want ErrRankFailed, got %v", err)
	}
	var rf *RankFailure
	if !errors.As(err, &rf) || rf.Kind != KindCorrupted || rf.Rank != 1 {
		t.Fatalf("want KindCorrupted on rank 1, got %+v", rf)
	}
	if ev := rep.RecoveryCounts(); ev.Corrupted != 1 {
		t.Fatalf("RecoveryCounts.Corrupted = %d, want 1", ev.Corrupted)
	}
	if dead := rep.DeadRanks(); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("DeadRanks = %v, want [1]", dead)
	}
	snap := tel.Registry.Snapshot()
	if snap.Counters["sdc.escalated"] != 1 {
		t.Fatalf("sdc.escalated = %d, want 1", snap.Counters["sdc.escalated"])
	}
	if snap.Counters["sdc.retries"] != maxRetransmits {
		t.Fatalf("sdc.retries = %d, want %d", snap.Counters["sdc.retries"], maxRetransmits)
	}
}

// TestBoundedRepeatRecoversWithinBudget: a corruption repeating fewer
// times than the retry budget is cured by retransmission — the run
// completes and the payload arrives clean.
func TestBoundedRepeatRecoversWithinBudget(t *testing.T) {
	tel := telemetry.NewSession()
	plan := &FaultPlan{Corrupts: []Corrupt{
		{Rank: 0, Site: SiteSend, After: 1, Kind: CorruptNaN, Index: 0, Repeat: maxRetransmits - 1},
	}}
	_, err := RunWithOptions(2, RunOptions{Fault: plan, Telemetry: tel}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 9, []float64{2.5, -1.0})
		} else {
			data, _, _ := c.Recv(0, 9)
			if data[0] != 2.5 || data[1] != -1.0 {
				t.Errorf("payload arrived corrupted: %v", data)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := tel.Registry.Snapshot()
	if snap.Counters["sdc.recovered"] != 1 || snap.Counters["sdc.escalated"] != 0 {
		t.Fatalf("recovered=%d escalated=%d, want 1/0",
			snap.Counters["sdc.recovered"], snap.Counters["sdc.escalated"])
	}
	if snap.Counters["sdc.retries"] != maxRetransmits {
		t.Fatalf("sdc.retries = %d, want %d", snap.Counters["sdc.retries"], maxRetransmits)
	}
}

// TestUnverifiedTransportLetsCorruptionThrough documents the Unverified
// escape hatch: with verification off, the same injection reaches the
// receiver unchecked (this is the mode bench_test.go uses to price the
// checksums, and what a pre-integrity runtime would have done).
func TestUnverifiedTransportLetsCorruptionThrough(t *testing.T) {
	plan := &FaultPlan{Corrupts: []Corrupt{
		{Rank: 0, Site: SiteSend, After: 1, Kind: CorruptBitFlip, Index: 0, Bit: 62},
	}}
	var got float64
	_, err := RunWithOptions(2, RunOptions{Fault: plan, Unverified: true}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1.0})
		} else {
			data, _, _ := c.Recv(0, 1)
			got = data[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got == 1.0 {
		t.Fatal("corruption should have slipped through unverified transport")
	}
}

// TestSendCorruptionVerifiedAtRecv: the plain point-to-point path carries
// the same framing as the collectives — a corrupted Send payload is
// repaired by retransmission before Recv returns.
func TestSendCorruptionVerifiedAtRecv(t *testing.T) {
	tel := telemetry.NewSession()
	plan := &FaultPlan{Corrupts: []Corrupt{
		{Rank: 0, Site: SiteSend, After: 1, Kind: CorruptBitFlip, Index: 1, Bit: 3},
	}}
	_, err := RunWithOptions(2, RunOptions{Fault: plan, Telemetry: tel}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 2, []float64{7, 8, 9})
		} else {
			data, _, _ := c.Recv(0, 2)
			if data[1] != 8 {
				t.Errorf("Recv returned corrupted payload: %v", data)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap := tel.Registry.Snapshot(); snap.Counters["sdc.recovered"] != 1 {
		t.Fatalf("point-to-point corruption not recovered: %+v", snap.Counters)
	}
}

// TestConfigurableGraceShortensAbandonment: with a tiny Grace a wedged
// rank is abandoned quickly; the default used to be a hard-coded 500ms.
func TestConfigurableGraceShortensAbandonment(t *testing.T) {
	plan := &FaultPlan{
		Kills:  []Kill{{Rank: 0, Site: SiteBarrier, After: 1}},
		Delays: []Delay{{Rank: 1, Site: SiteBarrier, After: 1, Sleep: 3 * time.Second}},
	}
	start := time.Now()
	rep, err := RunWithOptions(2, RunOptions{
		Fault:    plan,
		Deadline: 50 * time.Millisecond,
		Grace:    30 * time.Millisecond,
	}, func(c *Comm) {
		c.Barrier()
	})
	if err == nil {
		t.Fatal("want failure")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("abandonment took %v; grace not honored", el)
	}
	if len(rep.Abandoned) != 1 || rep.Abandoned[0] != 1 {
		t.Fatalf("Abandoned = %v, want [1]", rep.Abandoned)
	}
}

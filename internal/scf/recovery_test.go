package scf

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/integrals"
	"repro/internal/molecule"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// run is Run on the production ERI source under a background context.
func run(eng *integrals.Engine, sch *integrals.Schwarz, p Plan) (*Result, error) {
	return Run(context.Background(), eng, sch, integrals.NewPairCache(eng, 0), p)
}

// resilient is the facade's Resilient preset: the lease-based build under
// shrink-and-restart from the per-iteration checkpoint.
func resilient(ranks int) Plan {
	return Plan{Algorithm: AlgResilientFock, Recovery: CheckpointShrink, Ranks: ranks, Deadline: 20 * time.Second}
}

func resilientSetup(t *testing.T) (*integrals.Engine, *integrals.Schwarz, *Result) {
	t.Helper()
	ref, eng := serialSCF(t, molecule.Water(), "sto-3g", Options{})
	if !ref.Converged {
		t.Fatal("reference SCF did not converge")
	}
	sch := integrals.ComputeSchwarz(eng)
	return eng, sch, ref
}

// TestInBuildRecoveryMidFockBuild is the tentpole's mid-SCF/mid-build
// acceptance test for the resilient builder: a rank dies at a DLB draw
// partway through the run; the survivors re-issue its leases and finish
// the ENTIRE SCF without a restart, converging to the failure-free
// energy to 1e-8 hartree.
func TestInBuildRecoveryMidFockBuild(t *testing.T) {
	eng, sch, ref := resilientSetup(t)
	p := resilient(3)
	// Rank 2's eighth cursor draw kills it — inside a Fock build a few
	// iterations into the SCF.
	p.Fault = &mpi.FaultPlan{Kills: []mpi.Kill{{Rank: 2, Site: mpi.SiteDLB, After: 8}}}
	res, err := run(eng, sch, p)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Recovery
	if !res.Converged || math.Abs(res.Energy-ref.Energy) > 1e-8 {
		t.Fatalf("E = %.12f, want %.12f", res.Energy, ref.Energy)
	}
	if !rec.InBuildRecovery {
		t.Fatalf("failure was not absorbed in-build: %+v", rec)
	}
	if rec.Restarts != 0 || rec.Attempts != 1 {
		t.Fatalf("in-build recovery should not restart: %+v", rec)
	}
	if len(rec.FailedRanks) != 1 || rec.FailedRanks[0] != 2 {
		t.Fatalf("FailedRanks = %v, want [2]", rec.FailedRanks)
	}
	if rec.Reports[0].Failures[0].Kind != mpi.KindKilled {
		t.Fatalf("failure kind = %v, want killed", rec.Reports[0].Failures[0].Kind)
	}
}

// TestReportTalliesDoNotRegister: the supervisor reads its recovery
// tallies without creating the counters, so a shared-fock run, which
// counts none of them, leaves all five out of its metrics, while a
// resilient run that loses a rank still reports the leases it reissued.
func TestReportTalliesDoNotRegister(t *testing.T) {
	eng, sch, _ := resilientSetup(t)
	tel := telemetry.NewSession()
	p := Plan{Algorithm: AlgSharedFock, Ranks: 2, Threads: 2}
	p.SCF.Telemetry = tel
	if _, err := run(eng, sch, p); err != nil {
		t.Fatal(err)
	}
	snap := tel.Registry.Snapshot()
	for name := range (&Report{}).tallies() {
		if v, ok := snap.Counters[name]; ok {
			t.Errorf("shared-fock run registered %s (= %d)", name, v)
		}
	}

	// Rank 0 dies inside its first Fock task, holding that task's lease,
	// which rank 1 then reissues. A rank that draws no task in the whole
	// run never reaches the kill, so the run is repeated until it does.
	for try := 0; ; try++ {
		tel = telemetry.NewSession()
		p = resilient(2)
		p.Fault = &mpi.FaultPlan{Kills: []mpi.Kill{{Rank: 0, Site: mpi.SiteFock, After: 1}}}
		p.SCF.Telemetry = tel
		res, err := run(eng, sch, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Recovery.FailedRanks) == 0 {
			if try == 20 {
				t.Fatal("rank 0 ran no Fock task in 20 runs")
			}
			continue
		}
		got := tel.Registry.Snapshot().Counters["dlb.reissued"]
		if res.Recovery.ReissuedTasks == 0 || res.Recovery.ReissuedTasks != got {
			t.Errorf("Report.ReissuedTasks = %d, dlb.reissued = %d; want the same positive count",
				res.Recovery.ReissuedTasks, got)
		}
		return
	}
}

// TestRestartFromCheckpointMidSCF drives the checkpoint path: with the
// non-resilient Algorithm 1 builder, a rank death poisons the collective
// reduction and every survivor unwinds; the driver must shrink to the
// survivors and warm-start from the per-iteration checkpoint, still
// converging to the failure-free energy.
func TestRestartFromCheckpointMidSCF(t *testing.T) {
	eng, sch, ref := resilientSetup(t)
	p := resilient(3)
	p.Algorithm = AlgMPIOnly
	// DLBReset barriers twice per Fock build, so the fifth barrier is
	// the start of iteration 3 — iterations 1 and 2 are checkpointed.
	p.Fault = &mpi.FaultPlan{Kills: []mpi.Kill{{Rank: 1, Site: mpi.SiteBarrier, After: 5}}}
	res, err := run(eng, sch, p)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Recovery
	if !res.Converged || math.Abs(res.Energy-ref.Energy) > 1e-8 {
		t.Fatalf("E = %.12f, want %.12f (failure-free reference)", res.Energy, ref.Energy)
	}
	if rec.Attempts != 2 || rec.Restarts != 1 {
		t.Fatalf("want exactly one restart: %+v", rec)
	}
	if rec.CheckpointRestarts != 1 || rec.GuessRestarts != 0 {
		t.Fatalf("restart should warm-start from the checkpoint: %+v", rec)
	}
	if len(rec.RanksPerAttempt) != 2 || rec.RanksPerAttempt[0] != 3 || rec.RanksPerAttempt[1] != 2 {
		t.Fatalf("world should shrink 3 -> 2: %v", rec.RanksPerAttempt)
	}
	if rec.InBuildRecovery {
		t.Fatal("Algorithm 1 cannot recover in-build")
	}
	// The warm start must actually help: fewer iterations than the cold
	// reference (it resumes from iteration 2's density).
	if res.Iterations >= ref.Iterations {
		t.Fatalf("restart took %d iterations, cold run %d — checkpoint not used",
			res.Iterations, ref.Iterations)
	}
}

// TestRestartBeforeFirstCheckpointFallsBackToGuess: a death in the very
// first Fock build leaves no checkpoint; the driver must restart from
// the standard initial guess and still converge.
func TestRestartBeforeFirstCheckpointFallsBackToGuess(t *testing.T) {
	eng, sch, ref := resilientSetup(t)
	p := resilient(3)
	p.Algorithm = AlgMPIOnly
	// First barrier = iteration 1's DLBReset: nothing checkpointed yet.
	p.Fault = &mpi.FaultPlan{Kills: []mpi.Kill{{Rank: 1, Site: mpi.SiteBarrier, After: 1}}}
	res, err := run(eng, sch, p)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Recovery
	if !res.Converged || math.Abs(res.Energy-ref.Energy) > 1e-8 {
		t.Fatalf("E = %.12f, want %.12f", res.Energy, ref.Energy)
	}
	if rec.GuessRestarts != 1 || rec.CheckpointRestarts != 0 {
		t.Fatalf("restart should fall back to the guess: %+v", rec)
	}
}

// TestCorruptSeedCheckpointFallsBack is the satellite-2 driver behavior:
// a truncated checkpoint seed is diagnosed and ignored, and the run
// proceeds from the standard guess.
func TestCorruptSeedCheckpointFallsBack(t *testing.T) {
	eng, sch, ref := resilientSetup(t)
	// A real checkpoint, truncated mid-stream.
	full, err := EncodeCheckpoint("water", "sto-3g", ref)
	if err != nil {
		t.Fatal(err)
	}
	truncated := full[:len(full)/2]

	p := resilient(2)
	p.checkpoint = truncated
	res, err := run(eng, sch, p)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Recovery
	if rec.CorruptCheckpoints == 0 {
		t.Fatalf("truncated checkpoint not diagnosed: %+v", rec)
	}
	if !res.Converged || math.Abs(res.Energy-ref.Energy) > 1e-8 {
		t.Fatalf("E = %.12f, want %.12f", res.Energy, ref.Energy)
	}
}

// TestCheckpointTruncatedAndCorrupted is the satellite-2 unit test:
// LoadCheckpoint must return descriptive errors — never panic — on
// truncated or corrupted files.
// framed wraps a JSON body in a valid v1 frame, so the test reaches the
// checks behind the CRC.
func framed(body string) []byte {
	return []byte(fmt.Sprintf("%s v1 len=%d\n%s\ncrc32=%08x\n", checkpointMagic, len(body), body,
		crc32.ChecksumIEEE([]byte(body))))
}

func TestCheckpointTruncatedAndCorrupted(t *testing.T) {
	ref, _ := serialSCF(t, molecule.Water(), "sto-3g", Options{})
	full, err := EncodeCheckpoint("water", "sto-3g", ref)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "truncated or corrupted"},
		{"truncated", full[:len(full)/3], "truncated or corrupted"},
		{"binary garbage", []byte{0x1f, 0x8b, 0x08, 0x00, 0xff}, "truncated or corrupted"},
		{"bare json", []byte(`{"num_bf":1,"density":[1]}`), "truncated or corrupted"},
		{"absurd basis size", framed(`{"num_bf":1000000,"density":[]}`), "basis functions"},
		{"negative basis size", framed(`{"num_bf":-4,"density":[]}`), "basis functions"},
		{"length mismatch", framed(`{"num_bf":3,"density":[1,2,3,4]}`), "want 9"},
		{"alpha length mismatch", framed(`{"num_bf":1,"density":[1],"alpha_density":[1,2]}`), "alpha density"},
	}
	for _, tc := range cases {
		_, err := LoadCheckpoint(bytes.NewReader(tc.data))
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// The happy path still round-trips.
	if _, err := LoadCheckpoint(bytes.NewReader(full)); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
}

package scf

import (
	"context"
	"math"
	"testing"

	"repro/internal/integrals"
	"repro/internal/molecule"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// abftPlan is the facade's PurifiedABFT preset on 3x3 tiles.
func abftPlan(ranks int) Plan {
	return Plan{
		Algorithm: AlgPurifiedABFT, Recovery: ParitySalvage, Ranks: ranks, BlockSize: 3,
		SCF: Options{ConvDens: 1e-10, ConvEnergy: 1e-12},
	}
}

// TestPurifiedResilientSurvivesKill is the tentpole test: a rank killed
// mid-purification must be survived by parity reconstruction — the
// shrunken world resumes the interrupted iteration and lands on the
// reference energy, with tiles provably rebuilt from parity rather than
// restarted from scratch.
func TestPurifiedResilientSurvivesKill(t *testing.T) {
	want, _ := serialSCF(t, molecule.Water(), "sto-3g",
		Options{ConvDens: 1e-10, ConvEnergy: 1e-12})
	eng, sch := purifiedSetup(t)
	tel := telemetry.NewSession()
	p := abftPlan(4)
	p.SCF.Telemetry = tel
	// After 8 purification sweeps on rank 1 the kill fires inside a
	// sweep — past the first iteration, mid-purification.
	p.Fault = &mpi.FaultPlan{Kills: []mpi.Kill{{Rank: 1, Site: mpi.SitePurify, After: 8}}}
	res, err := run(eng, sch, p)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Recovery
	if !res.Converged {
		t.Fatalf("did not converge after recovery (%d iterations)", res.Iterations)
	}
	if dE := math.Abs(res.Energy - want.Energy); dE > 1e-8 {
		t.Errorf("post-recovery energy off by %g", dE)
	}
	if rec.Restarts != 1 || rec.Attempts != 2 {
		t.Errorf("Restarts=%d Attempts=%d, want 1 resume over 2 attempts", rec.Restarts, rec.Attempts)
	}
	if len(rec.FailedRanks) != 1 || rec.FailedRanks[0] != 1 {
		t.Errorf("FailedRanks = %v, want [1]", rec.FailedRanks)
	}
	if rec.ReconstructedTiles == 0 {
		t.Errorf("no tiles reconstructed from parity — recovery did not exercise ABFT")
	}
	if rec.ResumedIter < 1 {
		t.Errorf("ResumedIter = %d, want >= 1", rec.ResumedIter)
	}
	if got := tel.Counter("distmat.abft.reconstructed_tiles").Value(); got != rec.ReconstructedTiles {
		t.Errorf("telemetry reconstructed_tiles = %d, recovery says %d", got, rec.ReconstructedTiles)
	}
	if len(rec.RanksPerAttempt) != 2 || rec.RanksPerAttempt[1] != 3 {
		t.Errorf("RanksPerAttempt = %v, want [4 3]", rec.RanksPerAttempt)
	}
}

// TestPurifiedResilientRepairsBitFlip: a resident bit flip injected
// between sweeps must be caught by the per-sweep audit and repaired,
// converging to the reference energy with zero recoveries (no rank
// died) and a positive repair count.
func TestPurifiedResilientRepairsBitFlip(t *testing.T) {
	want, _ := serialSCF(t, molecule.Water(), "sto-3g",
		Options{ConvDens: 1e-10, ConvEnergy: 1e-12})
	eng, sch := purifiedSetup(t)
	tel := telemetry.NewSession()
	p := abftPlan(4)
	p.SCF.Telemetry = tel
	p.Fault = &mpi.FaultPlan{Corrupts: []mpi.Corrupt{{
		// Flip a high mantissa bit in rank 2's first owned tile at the
		// 6th sweep: large enough to clear the audit tolerance, resident
		// (parity deliberately not updated by the injector). Index 4 —
		// element (4,1) of the water density, O 2pz x O 2s — is nonzero
		// by symmetry; index 0 would hit the out-of-plane 2py row, which
		// is exactly zero, and a bit flip on 0.0 only reaches denormal
		// territory no tolerance can see.
		Rank: 2, Site: mpi.SitePurify, After: 6,
		Kind: mpi.CorruptBitFlip, Index: 4, Bit: 51,
	}}}
	res, err := run(eng, sch, p)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Recovery
	if !res.Converged {
		t.Fatalf("did not converge (%d iterations)", res.Iterations)
	}
	if dE := math.Abs(res.Energy - want.Energy); dE > 1e-10 {
		t.Errorf("post-repair energy off by %g", dE)
	}
	if rec.Restarts != 0 {
		t.Errorf("Restarts = %d, want 0 (a bit flip is repaired in place)", rec.Restarts)
	}
	if tel.Counter("sdc.injected").Value() == 0 {
		t.Fatalf("fault plan never injected — the test is vacuous")
	}
	if rec.AuditMismatches == 0 || rec.RepairedTiles == 0 {
		t.Errorf("audit tallies %d/%d, want the injected flip detected and repaired",
			rec.AuditMismatches, rec.RepairedTiles)
	}
	if det := tel.Counter("sdc.detected").Value(); det == 0 {
		t.Errorf("sdc.detected = 0: the integrity ladder never saw the corruption")
	}
}

// TestPurifiedResilientExhaustsBudget: more kills than the budget allows
// must surface as a budget-exhausted error, not a hang or a wrong
// answer.
func TestPurifiedResilientExhaustsBudget(t *testing.T) {
	eng, sch := purifiedSetup(t)
	p := abftPlan(2)
	p.Fault = &mpi.FaultPlan{Kills: []mpi.Kill{{Rank: 1, Site: mpi.SitePurify, After: 3}}}
	res, err := supervise(context.Background(), eng, sch, integrals.NewPairCache(eng, 0), p, 0) // no budget at all
	if err == nil {
		t.Fatal("expected a budget-exhausted error")
	}
	if rec := res.Recovery; rec.Restarts != 0 || rec.Outcomes[0] != "error" {
		t.Errorf("a zero budget still resumed: %+v", rec)
	}
}

// TestReportTalliesAreDeltas: hfserve shares one telemetry registry
// across jobs, so a run's counter-backed tallies must be what THIS run
// added — the second, clean run on a session must not report the first
// run's audit repairs.
func TestReportTalliesAreDeltas(t *testing.T) {
	eng, sch := purifiedSetup(t)
	tel := telemetry.NewSession()
	p := abftPlan(4)
	p.SCF.Telemetry = tel
	p.Fault = &mpi.FaultPlan{Corrupts: []mpi.Corrupt{{
		Rank: 2, Site: mpi.SitePurify, After: 6, Kind: mpi.CorruptBitFlip, Index: 4, Bit: 51,
	}}}
	first, err := run(eng, sch, p)
	if err != nil {
		t.Fatal(err)
	}
	if first.Recovery.AuditMismatches == 0 || first.Recovery.RepairedTiles == 0 {
		t.Fatalf("the flip was not tallied: %+v", first.Recovery)
	}
	p.Fault = nil
	second, err := run(eng, sch, p)
	if err != nil {
		t.Fatal(err)
	}
	if rec := second.Recovery; rec.AuditMismatches != 0 || rec.RepairedTiles != 0 {
		t.Errorf("the clean second run reports the first run's tallies: %d mismatches, %d repaired tiles",
			rec.AuditMismatches, rec.RepairedTiles)
	}
	if got := tel.Counter("distmat.abft.repaired_tiles").Value(); got != first.Recovery.RepairedTiles {
		t.Errorf("session counter %d != first run's tally %d", got, first.Recovery.RepairedTiles)
	}
}

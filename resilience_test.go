package repro

// Facade-level resilience test: the library call a downstream user makes
// to run a fault-tolerant SCF, with a rank killed mid-run.

import (
	"math"
	"testing"
	"time"

	"repro/internal/mpi"
)

func TestResilientFacadeSurvivesRankDeath(t *testing.T) {
	mol, err := BuiltinMolecule("h2")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(bg, mol, "sto-3g", Serial)
	if err != nil || !ref.Converged {
		t.Fatalf("reference run failed: %v", err)
	}

	p := Resilient
	p.Ranks, p.Deadline = 3, 20*time.Second
	p.Fault = &mpi.FaultPlan{Kills: []mpi.Kill{{Rank: 1, Site: mpi.SiteDLB, After: 2}}}
	res, err := Run(bg, mol, "sto-3g", p)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Recovery
	if !res.Converged || math.Abs(res.Energy-ref.Energy) > 1e-8 {
		t.Fatalf("resilient E = %.12f, want %.12f", res.Energy, ref.Energy)
	}
	if len(rec.FailedRanks) != 1 || rec.FailedRanks[0] != 1 {
		t.Fatalf("FailedRanks = %v, want [1]", rec.FailedRanks)
	}
	if !rec.InBuildRecovery && rec.Restarts == 0 {
		t.Fatalf("a rank died but no recovery was recorded: %+v", rec)
	}
}

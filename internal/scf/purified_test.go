package scf

import (
	"math"
	"testing"

	"repro/internal/basis"
	"repro/internal/integrals"
	"repro/internal/molecule"
)

func purifiedSetup(t *testing.T) (*integrals.Engine, *integrals.Schwarz) {
	t.Helper()
	b, err := basis.Build(molecule.Water(), "sto-3g")
	if err != nil {
		t.Fatal(err)
	}
	eng := integrals.NewEngine(b)
	return eng, integrals.ComputeSchwarz(eng)
}

// TestRunRHFPurifiedMatchesEigensolve is the whole point of the
// subsystem: the distributed, eigensolve-free SCF must land on the same
// fixed point as the replicated reference driver.
func TestRunRHFPurifiedMatchesEigensolve(t *testing.T) {
	want, _ := serialSCF(t, molecule.Water(), "sto-3g",
		Options{ConvDens: 1e-10, ConvEnergy: 1e-12})

	eng, sch := purifiedSetup(t)
	var peak1 int64
	for _, tc := range []struct{ ranks, bs int }{{1, 3}, {4, 3}, {6, 3}} {
		res, err := run(eng, sch, Plan{
			Algorithm: AlgPurified, Ranks: tc.ranks, BlockSize: tc.bs,
			SCF: Options{ConvDens: 1e-10, ConvEnergy: 1e-12},
		})
		if err != nil {
			t.Fatalf("ranks=%d: %v", tc.ranks, err)
		}
		info := res.Tiles
		if !res.Converged {
			t.Fatalf("ranks=%d: did not converge in %d iterations", tc.ranks, res.Iterations)
		}
		if dE := math.Abs(res.Energy - want.Energy); dE > 1e-10 {
			t.Errorf("ranks=%d: purified energy %v vs eigensolve %v (|dE| = %g)",
				tc.ranks, res.Energy, want.Energy, dE)
		}
		if diff := res.D.MaxAbsDiff(want.D); diff > 1e-8 {
			t.Errorf("ranks=%d: purified density differs from eigensolve by %g", tc.ranks, diff)
		}
		if res.C != nil || res.OrbitalEnergies != nil {
			t.Errorf("ranks=%d: purification must not produce orbitals", tc.ranks)
		}
		if info.GridPr*info.GridPc != tc.ranks {
			t.Errorf("ranks=%d: grid %dx%d does not cover the world",
				tc.ranks, info.GridPr, info.GridPc)
		}
		sweeps := 0
		for _, it := range res.History {
			sweeps += it.Sweeps
		}
		if info.TotalSweeps == 0 || info.TotalSweeps != sweeps {
			t.Errorf("ranks=%d: %d total sweeps, history sums to %d", tc.ranks, info.TotalSweeps, sweeps)
		}
		// Distribution must shrink the per-rank footprint: multi-rank
		// worlds hold a strict subset of the single-rank tile set (the
		// replicated-vs-distributed crossover at scale is the scaling
		// gate's job, not this unit test's).
		if info.PeakRankBytes <= 0 {
			t.Errorf("ranks=%d: peak gauge never recorded", tc.ranks)
		}
		if tc.ranks == 1 {
			peak1 = info.PeakRankBytes
		} else if info.PeakRankBytes >= peak1 {
			t.Errorf("ranks=%d: peak %d bytes did not shrink from single-rank %d",
				tc.ranks, info.PeakRankBytes, peak1)
		}
		if tc.ranks > 1 && info.GetBytes == 0 {
			t.Errorf("ranks=%d: a multi-rank run moved no one-sided bytes", tc.ranks)
		}
	}
}

// TestRunRHFPurifiedWarmStart: seeding with the converged density must
// converge almost immediately, exercising the InitialDensity scatter.
func TestRunRHFPurifiedWarmStart(t *testing.T) {
	want, _ := serialSCF(t, molecule.Water(), "sto-3g",
		Options{ConvDens: 1e-10, ConvEnergy: 1e-12})
	eng, sch := purifiedSetup(t)
	res, err := run(eng, sch, Plan{Algorithm: AlgPurified, Ranks: 4, SCF: Options{InitialDensity: want.D}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations > 3 {
		t.Errorf("warm start took %d iterations (converged=%v)", res.Iterations, res.Converged)
	}
	if dE := math.Abs(res.Energy - want.Energy); dE > 1e-9 {
		t.Errorf("warm-start energy off by %g", dE)
	}
}

func TestRunRHFPurifiedRejectsOddElectrons(t *testing.T) {
	hb, err := basis.Build(&molecule.Molecule{
		Name:  "H atom",
		Atoms: []molecule.Atom{{Z: 1, Symbol: "H"}},
	}, "sto-3g")
	if err != nil {
		t.Fatal(err)
	}
	eng := integrals.NewEngine(hb)
	sch := integrals.ComputeSchwarz(eng)
	if _, err := run(eng, sch, Plan{Algorithm: AlgPurified}); err == nil {
		t.Error("odd electron count must be rejected")
	}
}

// TestRunRHFPurifiedBeyond64Ranks: a world of more than 64 ranks holds
// every window at the size it was created with — the per-rank peak
// reduction and the checksum agreement of every scatter reach rank 64 —
// and lands on the 2-rank energy.
func TestRunRHFPurifiedBeyond64Ranks(t *testing.T) {
	eng, sch := purifiedSetup(t)
	opt := Options{ConvDens: 1e-10, ConvEnergy: 1e-12}
	for _, alg := range []Algorithm{AlgPurified, AlgPurifiedABFT} {
		want, err := run(eng, sch, Plan{Algorithm: alg, Ranks: 2, SCF: opt})
		if err != nil {
			t.Fatalf("%s, 2 ranks: %v", alg, err)
		}
		got, err := run(eng, sch, Plan{Algorithm: alg, Ranks: 65, SCF: opt})
		if err != nil {
			t.Fatalf("%s, 65 ranks: %v", alg, err)
		}
		if !got.Converged {
			t.Fatalf("%s, 65 ranks: did not converge in %d iterations", alg, got.Iterations)
		}
		if dE := math.Abs(got.Energy - want.Energy); dE > 1e-10 {
			t.Errorf("%s: 65-rank energy %v vs 2-rank %v (|dE| = %g)", alg, got.Energy, want.Energy, dE)
		}
	}
}

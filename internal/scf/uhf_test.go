package scf

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/basis"
	"repro/internal/ddi"
	"repro/internal/fock"
	"repro/internal/integrals"
	"repro/internal/molecule"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

func uhfSetup(t *testing.T, mol *molecule.Molecule, set string) *integrals.Engine {
	t.Helper()
	b, err := basis.Build(mol, set)
	if err != nil {
		t.Fatal(err)
	}
	return integrals.NewEngine(b)
}

func TestUHFHydrogenAtom(t *testing.T) {
	m := &molecule.Molecule{Name: "H"}
	m.AddAtomAngstrom("H", 0, 0, 0)
	eng := uhfSetup(t, m, "sto-3g")
	res, err := RunUHF(eng, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("H atom did not converge")
	}
	// STO-3G hydrogen atom: -0.4666 hartree (basis-set limited vs exact -0.5).
	if math.Abs(res.Energy-(-0.46658)) > 5e-3 {
		t.Fatalf("H atom UHF = %v", res.Energy)
	}
	// A doublet with one electron has no spin contamination: <S^2> = 0.75.
	if math.Abs(res.SSquared-0.75) > 1e-8 {
		t.Fatalf("<S^2> = %v want 0.75", res.SSquared)
	}
	if res.NumAlpha != 1 || res.NumBeta != 0 {
		t.Fatalf("occupations %d/%d", res.NumAlpha, res.NumBeta)
	}
}

func TestUHFSingletMatchesRHF(t *testing.T) {
	// For a well-behaved closed-shell molecule, UHF collapses to RHF.
	mol := molecule.Water()
	eng := uhfSetup(t, mol, "sto-3g")
	sch := integrals.ComputeSchwarz(eng)
	rhf, err := RunRHF(eng, SerialBuilder(eng, sch, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	uhf, err := RunUHF(eng, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !uhf.Converged {
		t.Fatal("UHF water did not converge")
	}
	if math.Abs(uhf.Energy-rhf.Energy) > 1e-7 {
		t.Fatalf("UHF %v vs RHF %v", uhf.Energy, rhf.Energy)
	}
	// Closed-shell singlet: <S^2> = 0.
	if math.Abs(uhf.SSquared) > 1e-6 {
		t.Fatalf("<S^2> = %v want 0", uhf.SSquared)
	}
}

func TestUHFTripletOxygen(t *testing.T) {
	eng := o2Triplet(t)
	res, err := RunUHF(eng, 3, Options{MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("O2 triplet did not converge")
	}
	// Literature UHF/STO-3G O2 is about -147.6 hartree.
	if res.Energy < -148.2 || res.Energy > -147.0 {
		t.Fatalf("O2 UHF energy = %v", res.Energy)
	}
	if res.NumAlpha != 9 || res.NumBeta != 7 {
		t.Fatalf("occupations %d/%d", res.NumAlpha, res.NumBeta)
	}
	// <S^2> for a triplet is >= 2 (2.0 exact; contamination raises it).
	if res.SSquared < 1.9 || res.SSquared > 2.3 {
		t.Fatalf("<S^2> = %v", res.SSquared)
	}
	// The triplet must lie below the closed-shell singlet at this geometry
	// (Hund's rule at the UHF level).
	singlet, err := RunUHF(eng, 1, Options{MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	if singlet.Converged && res.Energy >= singlet.Energy {
		t.Fatalf("triplet %v not below singlet %v", res.Energy, singlet.Energy)
	}
}

func TestUHFValidation(t *testing.T) {
	mol := molecule.Water()
	eng := uhfSetup(t, mol, "sto-3g")
	if _, err := RunUHF(eng, 0, Options{}); err == nil {
		t.Fatal("multiplicity 0 should be rejected")
	}
	if _, err := RunUHF(eng, 2, Options{}); err == nil {
		t.Fatal("doublet with 10 electrons should be rejected")
	}
	if _, err := RunUHF(eng, 100, Options{}); err == nil {
		t.Fatal("impossible multiplicity should be rejected")
	}
}

// o2Triplet is the canonical UHF triplet of these tests.
func o2Triplet(t *testing.T) *integrals.Engine {
	t.Helper()
	m := &molecule.Molecule{Name: "O2"}
	m.AddAtomAngstrom("O", 0, 0, 0)
	m.AddAtomAngstrom("O", 0, 0, 1.2075)
	return uhfSetup(t, m, "sto-3g")
}

// o2TripletEnergy is the serial UHF/STO-3G energy of o2Triplet as computed
// by the J/K-twin builders this package had before the n-channel digest.
const o2TripletEnergy = -147.378559084267

func TestSerialUHFOneSweepPerIteration(t *testing.T) {
	// One UHF iteration is ONE pass over the ERIs carrying both spin
	// exchange channels — not one pass per spin.
	eng := o2Triplet(t)
	sch := integrals.ComputeSchwarz(eng)
	res, err := RunUHF(eng, 3, Options{MaxIter: 200})
	if err != nil || !res.Converged {
		t.Fatalf("serial UHF failed: %v", err)
	}
	if math.Abs(res.Energy-o2TripletEnergy) > 1e-10 {
		t.Fatalf("O2 triplet E = %.12f, want %.12f", res.Energy, o2TripletEnergy)
	}
	_, rhf := fock.SerialBuild(eng, sch, res.DAlpha, fock.DefaultTau)
	if want := int64(res.Iterations) * rhf.QuartetsComputed; res.TotalStats.QuartetsComputed != want {
		t.Fatalf("UHF evaluated %d quartets in %d iterations, want %d (one %d-quartet sweep each)",
			res.TotalStats.QuartetsComputed, res.Iterations, want, rhf.QuartetsComputed)
	}
}

func TestParallelUHFMatchesSerial(t *testing.T) {
	// EXP-V1 for the UHF extension: every parallel preset drives a full
	// UHF to the same energy as the serial path.
	eng := o2Triplet(t)
	sch := integrals.ComputeSchwarz(eng)
	for _, alg := range Algorithms {
		energies := make([]float64, 2)
		err := mpi.Run(2, func(c *mpi.Comm) {
			builder := ParallelJKBuilder(alg, ddi.New(c), eng, sch, fock.Config{Threads: 2})
			res, err := RunUHFWithBuilder(eng, 3, builder, Options{MaxIter: 200})
			if err != nil {
				t.Error(err)
				return
			}
			energies[c.Rank()] = res.Energy
		})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		for r, e := range energies {
			if math.Abs(e-o2TripletEnergy) > 1e-10 {
				t.Fatalf("%s rank %d: UHF energy %.12f, want %.12f", alg, r, e, o2TripletEnergy)
			}
		}
	}
}

// TestParallelUHFHooks: UHF runs on the same walker as RHF, so it gets
// the per-task hooks without a line of its own — the fock.build and
// fock.task spans of a traced run, and the SiteFock corruption site.
func TestParallelUHFHooks(t *testing.T) {
	eng := o2Triplet(t)
	sch := integrals.ComputeSchwarz(eng)
	tel := telemetry.NewSession()
	var energy float64
	_, err := mpi.RunWithOptions(2, mpi.RunOptions{Telemetry: tel}, func(c *mpi.Comm) {
		builder := ParallelJKBuilder(AlgSharedFock, ddi.New(c), eng, sch, fock.Config{Threads: 2})
		res, err := RunUHFWithBuilder(eng, 3, builder, Options{MaxIter: 200})
		if err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 {
			energy = res.Energy
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(energy-o2TripletEnergy) > 1e-10 {
		t.Fatalf("traced UHF energy %.12f, want %.12f", energy, o2TripletEnergy)
	}
	var buf bytes.Buffer
	if err := tel.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	stats, err := telemetry.ValidateTrace(buf.Bytes()) // rejects badly nested spans
	if err != nil {
		t.Fatal(err)
	}
	for _, cat := range []string{"fock.build", "fock.task", "dlb.draw", "mpi.op"} {
		if stats.Categories[cat] == 0 {
			t.Errorf("no %s spans in the UHF trace", cat)
		}
	}

	// One UHF build with a NaN scheduled into rank 1's second Fock task.
	// (Only the injection is asserted: the UHF loop does not yet quarantine
	// a poisoned build the way RunRHF does.)
	tel = telemetry.NewSession()
	res, err := RunUHF(eng, 3, Options{MaxIter: 1}) // spin densities to build from
	if err != nil {
		t.Fatal(err)
	}
	poisoned := make([]bool, 2)
	_, err = mpi.RunWithOptions(2, mpi.RunOptions{
		Telemetry: tel,
		Fault: &mpi.FaultPlan{Corrupts: []mpi.Corrupt{
			{Rank: 1, Site: mpi.SiteFock, After: 2, Kind: mpi.CorruptNaN, Index: 0}}},
	}, func(c *mpi.Comm) {
		builder := ParallelJKBuilder(AlgMPIOnly, ddi.New(c), eng, sch, fock.Config{})
		dt := res.DAlpha.Clone()
		dt.AxpyFrom(1, res.DBeta)
		j, _, _, _ := builder(dt, res.DAlpha, res.DBeta)
		poisoned[c.Rank()] = math.IsNaN(j.At(0, 0))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tel.Registry.Snapshot().Counters["sdc.injected.fock"]; got != 1 {
		t.Fatalf("sdc.injected.fock = %d, want 1: the SiteFock hook never fired in a UHF build", got)
	}
	// The poison rode the closing gsumf into every rank's J.
	if !poisoned[0] || !poisoned[1] {
		t.Fatalf("NaN reached ranks %v, want both", poisoned)
	}
}

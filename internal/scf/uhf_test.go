package scf

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/basis"
	"repro/internal/fock"
	"repro/internal/integrals"
	"repro/internal/integrals/oracle"
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

// serialUHF runs a serial unrestricted SCF of the given multiplicity.
func serialUHF(eng *integrals.Engine, multiplicity int, opt Options) (*Result, error) {
	return run(eng, integrals.ComputeSchwarz(eng), Plan{Multiplicity: multiplicity, SCF: opt})
}

func TestUHFHydrogenAtom(t *testing.T) {
	m := &molecule.Molecule{Name: "H"}
	m.AddAtomAngstrom("H", 0, 0, 0)
	eng := uhfSetup(t, m, "sto-3g")
	res, err := serialUHF(eng, 2, Options{})
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
	if math.Abs(res.Spin.SSquared-0.75) > 1e-8 {
		t.Fatalf("<S^2> = %v want 0.75", res.Spin.SSquared)
	}
	if res.Spin.NumAlpha != 1 || res.Spin.NumBeta != 0 {
		t.Fatalf("occupations %d/%d", res.Spin.NumAlpha, res.Spin.NumBeta)
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
	uhf, err := serialUHF(eng, 1, Options{})
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
	if math.Abs(uhf.Spin.SSquared) > 1e-6 {
		t.Fatalf("<S^2> = %v want 0", uhf.Spin.SSquared)
	}
}

func TestUHFTripletOxygen(t *testing.T) {
	eng := o2Triplet(t)
	res, err := serialUHF(eng, 3, Options{MaxIter: 200})
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
	if res.Spin.NumAlpha != 9 || res.Spin.NumBeta != 7 {
		t.Fatalf("occupations %d/%d", res.Spin.NumAlpha, res.Spin.NumBeta)
	}
	// <S^2> for a triplet is >= 2 (2.0 exact; contamination raises it).
	if res.Spin.SSquared < 1.9 || res.Spin.SSquared > 2.3 {
		t.Fatalf("<S^2> = %v", res.Spin.SSquared)
	}
	// The triplet must lie below the closed-shell singlet at this geometry
	// (Hund's rule at the UHF level).
	singlet, err := serialUHF(eng, 1, Options{MaxIter: 200})
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
	if _, err := serialUHF(eng, -1, Options{}); err == nil {
		t.Fatal("a negative multiplicity should be rejected")
	}
	if _, err := serialUHF(eng, 2, Options{}); err == nil {
		t.Fatal("doublet with 10 electrons should be rejected")
	}
	if _, err := serialUHF(eng, 100, Options{}); err == nil {
		t.Fatal("impossible multiplicity should be rejected")
	}
}

// o2Triplet is the canonical UHF triplet of these tests.
func o2Triplet(t *testing.T) *integrals.Engine {
	t.Helper()
	return uhfSetup(t, o2Molecule(), "sto-3g")
}

// o2TripletEnergy is the serial UHF/STO-3G energy of o2Triplet as computed
// by the J/K-twin builders this package had before the n-channel digest.
const o2TripletEnergy = -147.378559084267

func TestSerialUHFOneSweepPerIteration(t *testing.T) {
	// One UHF iteration is ONE pass over the ERIs carrying both spin
	// exchange channels — not one pass per spin.
	eng := o2Triplet(t)
	sch := integrals.ComputeSchwarz(eng)
	res, err := serialUHF(eng, 3, Options{MaxIter: 200})
	if err != nil || !res.Converged {
		t.Fatalf("serial UHF failed: %v", err)
	}
	if math.Abs(res.Energy-o2TripletEnergy) > 1e-10 {
		t.Fatalf("O2 triplet E = %.12f, want %.12f", res.Energy, o2TripletEnergy)
	}
	_, rhf := fock.SerialBuildN(eng, oracle.New(eng.Basis), sch, fock.RHF(fock.Dense(res.Spin.DAlpha)), fock.DefaultTau)
	if want := int64(res.Iterations) * rhf.QuartetsComputed; res.TotalFockStats.QuartetsComputed != want {
		t.Fatalf("UHF evaluated %d quartets in %d iterations, want %d (one %d-quartet sweep each)",
			res.TotalFockStats.QuartetsComputed, res.Iterations, want, rhf.QuartetsComputed)
	}
}

func TestParallelUHFMatchesSerial(t *testing.T) {
	// EXP-V1 for the UHF extension: every parallel preset drives a full
	// UHF to the same energy as the serial path. Both sides converge past
	// the asserted tolerance (see tight): thread and rank summation order
	// vary run to run, and with them the iterate a looser run stops at.
	eng := o2Triplet(t)
	sch := integrals.ComputeSchwarz(eng)
	serial, err := run(eng, sch, Plan{Multiplicity: 3, SCF: tight})
	if err != nil || !serial.Converged {
		t.Fatalf("serial UHF failed: %v", err)
	}
	if d := math.Abs(serial.Energy - o2TripletEnergy); d > 1e-8 {
		t.Fatalf("serial O2 triplet %.12f is %.1e off the pinned %.12f", serial.Energy, d, o2TripletEnergy)
	}
	for _, alg := range Algorithms {
		res, err := run(eng, sch, Plan{Multiplicity: 3, Algorithm: alg, Ranks: 2, Threads: 2, SCF: tight})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if d := math.Abs(res.Energy - serial.Energy); !res.Converged || d > 1e-10 {
			t.Fatalf("%s: UHF energy %.12f (converged=%v), serial %.12f, |dE| = %.1e",
				alg, res.Energy, res.Converged, serial.Energy, d)
		}
	}
}

// TestParallelUHFHooks: UHF rides the one loop on the one walker, so it
// gets the hooks without a line of its own — the scf.iter, fock.build and
// fock.task spans of a traced run, the SiteFock corruption site with the
// loop's quarantine-and-rebuild behind it, and the collective cancel gate.
func TestParallelUHFHooks(t *testing.T) {
	eng := o2Triplet(t)
	sch := integrals.ComputeSchwarz(eng)
	tel := telemetry.NewSession()
	res, err := run(eng, sch, Plan{
		Multiplicity: 3, Algorithm: AlgSharedFock, Ranks: 2, Threads: 2,
		SCF: Options{MaxIter: 200, Telemetry: tel},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Energy-o2TripletEnergy) > 1e-8 {
		t.Fatalf("traced UHF energy %.12f, want %.12f", res.Energy, o2TripletEnergy)
	}
	var buf bytes.Buffer
	if err := tel.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	stats, err := telemetry.ValidateTrace(buf.Bytes()) // rejects badly nested spans
	if err != nil {
		t.Fatal(err)
	}
	for _, cat := range []string{"scf.iter", "fock.build", "fock.task", "dlb.draw", "mpi.op"} {
		if stats.Categories[cat] == 0 {
			t.Errorf("no %s spans in the UHF trace", cat)
		}
	}
	if got := tel.Counter("scf.iterations").Value(); got != int64(res.Iterations) {
		t.Errorf("scf.iterations counter = %d, result says %d", got, res.Iterations)
	}

	// A NaN scheduled into rank 1's second Fock task rides the closing
	// gsumf into every rank's J: the loop must quarantine the build,
	// rebuild it clean and converge to the reference.
	tel = telemetry.NewSession()
	res, err = run(eng, sch, Plan{
		Multiplicity: 3, Algorithm: AlgMPIOnly, Ranks: 2,
		SCF: Options{MaxIter: 200, Telemetry: tel},
		Fault: &mpi.FaultPlan{Corrupts: []mpi.Corrupt{
			{Rank: 1, Site: mpi.SiteFock, After: 2, Kind: mpi.CorruptNaN, Index: 0}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := tel.Registry.Snapshot()
	if snap.Counters["sdc.injected.fock"] != 1 {
		t.Fatalf("sdc.injected.fock = %d, want 1: the SiteFock hook never fired in a UHF build",
			snap.Counters["sdc.injected.fock"])
	}
	if snap.Counters["sdc.detected.fock"] != 1 || snap.Counters["integrity.fock.recomputed"] != 1 {
		t.Fatalf("the poisoned UHF build was not quarantined and rebuilt: %+v", snap.Counters)
	}
	if !res.History[0].Recomputed {
		t.Errorf("iteration 1 not flagged Recomputed: %+v", res.History[0])
	}
	if !res.Converged || math.Abs(res.Energy-o2TripletEnergy) > 1e-8 {
		t.Fatalf("UHF after quarantine: E = %.12f (converged=%v), want %.12f", res.Energy, res.Converged, o2TripletEnergy)
	}
}

// TestCancelAtIterationBoundary: the loop's collective cancel gate stops
// a parallel UHF run and an ABFT-purified run — which had no context path
// before the one loop — at an iteration boundary with ErrCanceled.
func TestCancelAtIterationBoundary(t *testing.T) {
	eng := o2Triplet(t)
	sch := integrals.ComputeSchwarz(eng)
	weng, wsch := purifiedSetup(t)
	for _, tc := range []struct {
		name string
		eng  *integrals.Engine
		sch  *integrals.Schwarz
		plan Plan
	}{
		{"uhf", eng, sch, Plan{Multiplicity: 3, Algorithm: AlgSharedFock, Ranks: 2, Threads: 2}},
		{"purified-abft", weng, wsch, abftPlan(3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			tel := telemetry.NewSession()
			p := tc.plan
			p.SCF.Telemetry = tel
			p.SCF.OnIteration = func(iter int, _ *Result) {
				if iter == 2 {
					cancel()
				}
			}
			res, err := Run(ctx, tc.eng, tc.sch, integrals.NewPairCache(tc.eng, 0), p)
			if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
			}
			var ce *CanceledError
			if !errors.As(err, &ce) || ce.Iter != 3 {
				t.Fatalf("canceled at %+v, want the iteration-3 boundary", ce)
			}
			if got := tel.Counter("scf.iterations").Value(); got != 2 {
				t.Errorf("%d iterations ran, want exactly 2 before the gate", got)
			}
			if rep := res.Recovery; rep.Attempts != 1 || rep.Outcomes[0] != "canceled" {
				t.Errorf("a cancel spent recovery budget: %+v", rep)
			}
		})
	}
}

// perturbedSource scales every ERI of the wrapped source by 1 + eps with
// |eps| <= 1e-14, eps a seeded hash of the quartet and the element — a
// rounding-equivalent rewrite of the kernel, which is what used to decide
// whether the OH doublet took 127, 137, 220 or > 400 iterations.
type perturbedSource struct {
	src  integrals.QuartetSource
	seed uint64
}

func (p perturbedSource) ShellQuartet(i, j, k, l int, out []float64) []float64 {
	out = p.src.ShellQuartet(i, j, k, l, out)
	h := p.seed ^ uint64(i)<<48 ^ uint64(j)<<32 ^ uint64(k)<<16 ^ uint64(l)
	for n := range out {
		h = (h + uint64(n) + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
		h ^= h >> 29
		out[n] *= 1 + 1e-14*(float64(h>>11)/(1<<52)-1) // eps in [-1e-14, 1e-14)
	}
	return out
}

// TestOpenShellConvergenceIsNotALottery holds ROADMAP trap ii shut: under
// the joint DIIS the OH/STO-3G doublet converges in a handful of iterations
// to the same energy whatever the last bits of the integrals are.
func TestOpenShellConvergenceIsNotALottery(t *testing.T) {
	m := &molecule.Molecule{Name: "OH"}
	m.AddAtomAngstrom("O", 0, 0, 0)
	m.AddAtomAngstrom("H", 0, 0, 0.97)
	eng := uhfSetup(t, m, "sto-3g")
	sch := integrals.ComputeSchwarz(eng)
	pc := integrals.NewPairCache(eng, 0)
	plan := Plan{Multiplicity: 2, SCF: Options{MaxIter: 40}}
	ref, err := Run(context.Background(), eng, sch, pc, plan)
	if err != nil || !ref.Converged || ref.Iterations > 20 {
		t.Fatalf("unperturbed OH doublet: err=%v converged=%v iterations=%d", err, ref.Converged, ref.Iterations)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		res, err := Run(context.Background(), eng, sch, perturbedSource{pc, seed}, plan)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || res.Iterations > 20 {
			t.Errorf("seed %d: converged=%v in %d iterations, want <= 20", seed, res.Converged, res.Iterations)
		}
		if dE := math.Abs(res.Energy - ref.Energy); dE > 1e-9 {
			t.Errorf("seed %d: energy %.12f differs from the unperturbed %.12f by %g", seed, res.Energy, ref.Energy, dE)
		}
		t.Logf("seed %d: %d iterations, E = %.12f", seed, res.Iterations, res.Energy)
	}
}

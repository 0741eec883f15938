package scf

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/basis"
	"repro/internal/fock"
	"repro/internal/integrals"
	"repro/internal/integrals/oracle"
	"repro/internal/linalg"
	"repro/internal/molecule"
)

// SerialBuilder is the tests' oracle builder: the single-threaded
// reference Fock construction on the direct oracle.
func SerialBuilder(eng *integrals.Engine, sch *integrals.Schwarz, tau float64) Builder {
	if tau == 0 {
		tau = fock.DefaultTau
	}
	b := fock.SerialBuildN(eng, oracle.New(eng.Basis), sch, tau)
	return func(d *linalg.Matrix) (*linalg.Matrix, fock.Stats) {
		g, st := b.Build(fock.RHF(fock.Dense(d)))
		return g[0], st
	}
}

func serialSCF(t testing.TB, mol *molecule.Molecule, set string, opt Options) (*Result, *integrals.Engine) {
	t.Helper()
	b, err := basis.Build(mol, set)
	if err != nil {
		t.Fatal(err)
	}
	eng := integrals.NewEngine(b)
	sch := integrals.ComputeSchwarz(eng)
	// The production ERI source, as repro.Run hands it to every plan; the
	// direct oracle stays the reference of the conformance tables.
	fb := fock.SerialBuildN(eng, integrals.NewPairCache(eng, 0), sch, fock.DefaultTau)
	res, err := RunRHF(eng, func(d *linalg.Matrix) (*linalg.Matrix, fock.Stats) {
		g, st := fb.Build(fock.RHF(fock.Dense(d)))
		return g[0], st
	}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, eng
}

// TestH2STO3GEnergy pins H2/STO-3G at R = 1.4 bohr to the values Szabo &
// Ostlund print in section 3.5.2 (Modern Quantum Chemistry, 1989), each to
// its four printed decimals: the integrals in their basis-function labels
// 1 and 2, and the converged energies.
func TestH2STO3GEnergy(t *testing.T) {
	mol := &molecule.Molecule{Name: "H2 at 1.4 bohr", Atoms: []molecule.Atom{
		{Z: 1, Symbol: "H", Pos: [3]float64{0, 0, 0}},
		{Z: 1, Symbol: "H", Pos: [3]float64{0, 0, 1.4}},
	}}
	res, eng := serialSCF(t, mol, "sto-3g", Options{})
	if !res.Converged {
		t.Fatal("H2 did not converge")
	}
	s, tk, h := eng.Overlap(), eng.Kinetic(), eng.CoreHamiltonian()
	eri := func(i, j, k, l int) float64 {
		return integrals.NewPairCache(eng, 0).ShellQuartet(i, j, k, l, nil)[0]
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"S12", s.At(0, 1), 0.6593},
		{"T11", tk.At(0, 0), 0.7600},
		{"T12", tk.At(0, 1), 0.2365},
		{"H11", h.At(0, 0), -1.1204},
		{"H12", h.At(0, 1), -0.9584},
		{"(11|11)", eri(0, 0, 0, 0), 0.7746},
		{"(11|22)", eri(0, 0, 1, 1), 0.5697},
		{"(21|21)", eri(1, 0, 1, 0), 0.2970},
		{"(21|11)", eri(1, 0, 0, 0), 0.4441},
		{"E_elec", res.Electronic, -1.8310},
		{"E_total", res.Energy, -1.1167},
	} {
		if math.Abs(c.got-c.want) > 5e-5 {
			t.Errorf("%s = %.6f, Szabo & Ostlund print %.4f", c.name, c.got, c.want)
		}
	}
}

func TestHeHPlusEnergy(t *testing.T) {
	res, _ := serialSCF(t, molecule.HeHPlus(), "sto-3g", Options{})
	if !res.Converged {
		t.Fatal("HeH+ did not converge")
	}
	// Szabo-Ostrund's classic system: about -2.84 hartree.
	if res.Energy < -2.95 || res.Energy > -2.75 {
		t.Fatalf("HeH+ energy = %v outside window", res.Energy)
	}
}

func TestWaterSTO3GEnergy(t *testing.T) {
	res, _ := serialSCF(t, molecule.Water(), "sto-3g", Options{})
	if !res.Converged {
		t.Fatal("water did not converge")
	}
	// Literature RHF/STO-3G for water near equilibrium: about -74.96.
	if res.Energy < -75.15 || res.Energy > -74.75 {
		t.Fatalf("H2O/STO-3G energy = %v outside window", res.Energy)
	}
}

// TestWaterSTO3GExternalReference pins RHF water/STO-3G to a value this
// code did not produce: T. D. Crawford's programming projects (project
// #3, the Hartree-Fock SCF) give E = -74.942079928192 Ha at their
// geometry, whose bohr coordinates are used here as printed. The serial
// and the resilient presets (the served default, 2 ranks x 2 threads)
// must both land on it to 1e-6 Ha.
func TestWaterSTO3GExternalReference(t *testing.T) {
	const crawford = -74.942079928
	mol := &molecule.Molecule{Name: "H2O (Crawford)", Atoms: []molecule.Atom{
		{Z: 8, Symbol: "O", Pos: [3]float64{0, -0.143225816552, 0}},
		{Z: 1, Symbol: "H", Pos: [3]float64{1.638036840407, 1.136548822547, 0}},
		{Z: 1, Symbol: "H", Pos: [3]float64{-1.638036840407, 1.136548822547, 0}},
	}}
	b, err := basis.Build(mol, "sto-3g")
	if err != nil {
		t.Fatal(err)
	}
	eng := integrals.NewEngine(b)
	sch := integrals.ComputeSchwarz(eng)
	opt := Options{ConvDens: 1e-10, ConvEnergy: 1e-12}
	for _, p := range []Plan{
		{SCF: opt},
		{Algorithm: AlgResilientFock, Recovery: CheckpointShrink, Ranks: 2, Threads: 2, SCF: opt},
	} {
		res, err := Run(context.Background(), eng, sch, integrals.NewPairCache(eng, 0), p)
		if err != nil || !res.Converged {
			t.Fatalf("%q: %v (converged %v)", p.Algorithm, err, res != nil && res.Converged)
		}
		if d := math.Abs(res.Energy - crawford); d > 1e-6 {
			t.Errorf("%q: E = %.10f, Crawford %.9f (|diff| %.2g)", p.Algorithm, res.Energy, crawford, d)
		}
	}
}

func TestWater631GEnergy(t *testing.T) {
	res, _ := serialSCF(t, molecule.Water(), "6-31g", Options{})
	if !res.Converged {
		t.Fatal("water/6-31G did not converge")
	}
	// Literature RHF/6-31G: about -75.98.
	if res.Energy < -76.2 || res.Energy > -75.8 {
		t.Fatalf("H2O/6-31G energy = %v outside window", res.Energy)
	}
	// Bigger basis must lower the variational energy vs STO-3G.
	small, _ := serialSCF(t, molecule.Water(), "sto-3g", Options{})
	if res.Energy >= small.Energy {
		t.Fatalf("variational violation: 6-31G %v >= STO-3G %v", res.Energy, small.Energy)
	}
}

func TestMethaneSTO3G(t *testing.T) {
	res, _ := serialSCF(t, molecule.Methane(), "sto-3g", Options{})
	if !res.Converged {
		t.Fatal("CH4 did not converge")
	}
	// Literature: about -39.73.
	if res.Energy < -39.95 || res.Energy > -39.5 {
		t.Fatalf("CH4 energy = %v outside window", res.Energy)
	}
}

func TestDensityInvariants(t *testing.T) {
	res, eng := serialSCF(t, molecule.Water(), "sto-3g", Options{})
	s := eng.Overlap()
	// tr(D S) = number of electrons.
	ds := linalg.Mul(res.D, s)
	if got := ds.Trace(); math.Abs(got-10) > 1e-6 {
		t.Fatalf("tr(DS) = %v, want 10", got)
	}
	// Idempotency: D S D = 2 D for a closed-shell converged density.
	dsd := linalg.Mul(ds, res.D)
	twice := res.D.Clone()
	twice.Scale(2)
	if diff := dsd.MaxAbsDiff(twice); diff > 1e-5 {
		t.Fatalf("DSD != 2D, diff %v", diff)
	}
}

func TestOrbitalEnergiesOrderedAndFilled(t *testing.T) {
	res, _ := serialSCF(t, molecule.Water(), "sto-3g", Options{})
	eps := res.OrbitalEnergies
	for i := 1; i < len(eps); i++ {
		if eps[i] < eps[i-1] {
			t.Fatal("orbital energies not ascending")
		}
	}
	// Water's five occupied orbitals must all be bound (negative).
	for i := 0; i < 5; i++ {
		if eps[i] >= 0 {
			t.Fatalf("occupied orbital %d has energy %v >= 0", i, eps[i])
		}
	}
}

// identity returns the n x n identity matrix.
func identity(n int) *linalg.Matrix {
	m := linalg.NewSquare(n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

func TestMOOrthonormality(t *testing.T) {
	res, eng := serialSCF(t, molecule.Water(), "6-31g", Options{})
	s := eng.Overlap()
	ctsc := linalg.TripleProduct(res.C, s)
	if diff := ctsc.MaxAbsDiff(identity(s.Rows)); diff > 1e-8 {
		t.Fatalf("C^T S C != I, diff %v", diff)
	}
}

func TestDIISAndPlainAgree(t *testing.T) {
	withDIIS, _ := serialSCF(t, molecule.Water(), "sto-3g", Options{})
	plain, _ := serialSCF(t, molecule.Water(), "sto-3g", Options{disableDI: true, MaxIter: 200})
	if !withDIIS.Converged || !plain.Converged {
		t.Fatal("one of the runs did not converge")
	}
	if math.Abs(withDIIS.Energy-plain.Energy) > 1e-7 {
		t.Fatalf("DIIS %v vs plain %v", withDIIS.Energy, plain.Energy)
	}
	if withDIIS.Iterations > plain.Iterations {
		t.Fatalf("DIIS took more iterations (%d) than plain (%d)", withDIIS.Iterations, plain.Iterations)
	}
}

func TestOddElectronRejected(t *testing.T) {
	m := &molecule.Molecule{Name: "H"}
	m.AddAtomAngstrom("H", 0, 0, 0)
	b, _ := basis.Build(m, "sto-3g")
	eng := integrals.NewEngine(b)
	sch := integrals.ComputeSchwarz(eng)
	if _, err := RunRHF(eng, SerialBuilder(eng, sch, 0), Options{}); err == nil {
		t.Fatal("expected odd-electron error")
	}
}

func TestMaxIterExhaustion(t *testing.T) {
	res, _ := serialSCF(t, molecule.Water(), "sto-3g", Options{MaxIter: 2})
	if res.Converged {
		t.Fatal("2 iterations should not converge water")
	}
	if res.Iterations != 2 || len(res.History) != 2 {
		t.Fatalf("iterations = %d history = %d", res.Iterations, len(res.History))
	}
}

func TestEnergyMonotoneWindowHistory(t *testing.T) {
	res, _ := serialSCF(t, molecule.Water(), "sto-3g", Options{})
	last := res.History[len(res.History)-1]
	if math.Abs(last.DeltaE) > 1e-8 {
		t.Fatalf("final energy change too large: %v", last.DeltaE)
	}
	if last.RMSDens > 1e-8 {
		t.Fatalf("final RMS density too large: %v", last.RMSDens)
	}
}

func TestGrapheneFlakeSCF(t *testing.T) {
	// An all-carbon flake with the paper's basis family; checks the code
	// path used by the benchmark systems end to end (small enough to run).
	if testing.Short() {
		t.Skip("graphene SCF is slow")
	}
	res, _ := serialSCF(t, molecule.GrapheneFlake(2), "6-31g(d)", Options{MaxIter: 150})
	if !res.Converged {
		t.Fatal("C2 flake did not converge")
	}
	// Two carbons: energy near 2x atomic carbon (~ -37.7 each), bonded
	// lower; generous window.
	if res.Energy < -77 || res.Energy > -73 {
		t.Fatalf("C2 energy = %v outside window", res.Energy)
	}
}

func TestDensityFromC(t *testing.T) {
	c := linalg.FromRows([][]float64{{1, 0}, {0, 1}})
	d := densityFromC(c, 1, 2)
	if d.At(0, 0) != 2 || d.At(1, 1) != 0 || d.At(0, 1) != 0 {
		t.Fatalf("densityFromC = %v", d)
	}
}

func TestBuilderStatsAccumulate(t *testing.T) {
	res, _ := serialSCF(t, molecule.H2(), "sto-3g", Options{})
	if res.TotalFockStats.QuartetsComputed == 0 {
		t.Fatal("no quartets accumulated over SCF")
	}
	perIter := res.History[0].FockStat.QuartetsComputed
	if res.TotalFockStats.QuartetsComputed != perIter*int64(res.Iterations) {
		t.Fatalf("stats accumulation mismatch: %d vs %d x %d",
			res.TotalFockStats.QuartetsComputed, perIter, res.Iterations)
	}
}

// TestFockStatsSumOverRanks: a multi-rank Result counts the whole run's
// Fock work, so the same SCF reports the same quartets at 2x1 as at 1x2
// (one rank's Result alone holds its share).
func TestFockStatsSumOverRanks(t *testing.T) {
	eng, sch, _ := resilientSetup(t)
	var got [2]fock.Stats
	for s, shape := range [][2]int{{2, 1}, {1, 2}} {
		res, err := run(eng, sch, Plan{Algorithm: AlgPrivateFock, Ranks: shape[0], Threads: shape[1]})
		if err != nil || !res.Converged {
			t.Fatalf("%dx%d: %v", shape[0], shape[1], err)
		}
		got[s] = res.TotalFockStats
		var perIter int64
		for _, it := range res.History {
			perIter += it.FockStat.QuartetsComputed
		}
		if perIter != got[s].QuartetsComputed {
			t.Errorf("%dx%d: iterations sum to %d quartets, the total is %d", shape[0], shape[1], perIter, got[s].QuartetsComputed)
		}
	}
	if got[0].QuartetsComputed != got[1].QuartetsComputed || got[0].QuartetsScreened != got[1].QuartetsScreened {
		t.Fatalf("2x1 reports %d computed, %d screened; 1x2 %d, %d",
			got[0].QuartetsComputed, got[0].QuartetsScreened, got[1].QuartetsComputed, got[1].QuartetsScreened)
	}
}

func TestLithiumHydride(t *testing.T) {
	m := &molecule.Molecule{Name: "LiH"}
	m.AddAtomAngstrom("Li", 0, 0, 0)
	m.AddAtomAngstrom("H", 0, 0, 1.5949)
	res, _ := serialSCF(t, m, "sto-3g", Options{})
	if !res.Converged {
		t.Fatal("LiH did not converge")
	}
	// Literature RHF/STO-3G LiH: about -7.86 hartree.
	if res.Energy < -8.1 || res.Energy > -7.6 {
		t.Fatalf("LiH energy = %v", res.Energy)
	}
}

func TestHydrogenFluoride(t *testing.T) {
	m := &molecule.Molecule{Name: "HF"}
	m.AddAtomAngstrom("F", 0, 0, 0)
	m.AddAtomAngstrom("H", 0, 0, 0.9168)
	for _, tc := range []struct {
		set    string
		lo, hi float64
	}{
		{"sto-3g", -98.8, -98.3}, // literature ~ -98.57
		{"6-31g", -100.2, -99.7}, // literature ~ -99.98
	} {
		res, _ := serialSCF(t, m, tc.set, Options{})
		if !res.Converged {
			t.Fatalf("HF/%s did not converge", tc.set)
		}
		if res.Energy < tc.lo || res.Energy > tc.hi {
			t.Fatalf("HF/%s energy = %v outside [%v,%v]", tc.set, res.Energy, tc.lo, tc.hi)
		}
	}
}

func TestNeonAtom(t *testing.T) {
	m := &molecule.Molecule{Name: "Ne"}
	m.AddAtomAngstrom("Ne", 0, 0, 0)
	res, _ := serialSCF(t, m, "sto-3g", Options{})
	// Literature RHF/STO-3G neon: about -126.6 hartree.
	if !res.Converged || res.Energy < -127.2 || res.Energy > -126.0 {
		t.Fatalf("Ne energy = %v converged=%v", res.Energy, res.Converged)
	}
}

func TestMP2Water(t *testing.T) {
	res, eng := serialSCF(t, molecule.Water(), "sto-3g", Options{})
	mp2, err := RunMP2(eng, res)
	if err != nil {
		t.Fatal(err)
	}
	// Correlation energy is strictly negative; STO-3G water is about
	// -0.035 to -0.05 hartree.
	if mp2.CorrelationEnergy >= 0 {
		t.Fatalf("E(2) = %v not negative", mp2.CorrelationEnergy)
	}
	if mp2.CorrelationEnergy < -0.2 || mp2.CorrelationEnergy > -0.01 {
		t.Fatalf("E(2) = %v outside window", mp2.CorrelationEnergy)
	}
	if mp2.TotalEnergy >= res.Energy {
		t.Fatal("MP2 total must lie below RHF")
	}
	// Spin decomposition sums to the total.
	if math.Abs(mp2.SameSpin+mp2.OppositeSpin-mp2.CorrelationEnergy) > 1e-12 {
		t.Fatal("spin decomposition inconsistent")
	}
	// Both components are individually negative for a closed-shell minimum.
	if mp2.SameSpin > 0 || mp2.OppositeSpin > 0 {
		t.Fatalf("spin components: ss=%v os=%v", mp2.SameSpin, mp2.OppositeSpin)
	}
}

func TestMP2H2DissociationTrend(t *testing.T) {
	// Correlation magnitude grows as H2 stretches (RHF degrades).
	energies := []float64{}
	for _, r := range []float64{0.74, 1.2} {
		m := &molecule.Molecule{Name: "H2"}
		m.AddAtomAngstrom("H", 0, 0, 0)
		m.AddAtomAngstrom("H", 0, 0, r)
		res, eng := serialSCF(t, m, "sto-3g", Options{})
		mp2, err := RunMP2(eng, res)
		if err != nil {
			t.Fatal(err)
		}
		energies = append(energies, mp2.CorrelationEnergy)
	}
	if !(energies[1] < energies[0] && energies[0] < 0) {
		t.Fatalf("correlation trend wrong: %v", energies)
	}
}

func TestMP2RequiresConvergence(t *testing.T) {
	res, eng := serialSCF(t, molecule.Water(), "sto-3g", Options{MaxIter: 1})
	if _, err := RunMP2(eng, res); err == nil {
		t.Fatal("unconverged reference should be rejected")
	}
}

func TestGWHGuess(t *testing.T) {
	core, _ := serialSCF(t, molecule.Water(), "sto-3g", Options{})
	gwh, _ := serialSCF(t, molecule.Water(), "sto-3g", Options{Guess: "gwh"})
	if !gwh.Converged {
		t.Fatal("GWH run did not converge")
	}
	if math.Abs(gwh.Energy-core.Energy) > 1e-9 {
		t.Fatalf("guess changed the converged energy: %v vs %v", gwh.Energy, core.Energy)
	}
	// GWH should not be slower to converge than the bare core guess.
	if gwh.Iterations > core.Iterations+1 {
		t.Fatalf("GWH took %d iterations vs core %d", gwh.Iterations, core.Iterations)
	}
}

func TestUnknownGuessRejected(t *testing.T) {
	b, _ := basis.Build(molecule.H2(), "sto-3g")
	eng := integrals.NewEngine(b)
	sch := integrals.ComputeSchwarz(eng)
	if _, err := RunRHF(eng, SerialBuilder(eng, sch, 0), Options{Guess: "bogus"}); err == nil {
		t.Fatal("expected unknown-guess error")
	}
}

// rotate returns a copy of mol rigidly rotated by the Euler-like angles;
// total energies must be exactly invariant (a global test of every
// integral class, including the cartesian d components).
func rotate(mol *molecule.Molecule, a, b, c float64) *molecule.Molecule {
	ca, sa := math.Cos(a), math.Sin(a)
	cb, sb := math.Cos(b), math.Sin(b)
	cc, sc := math.Cos(c), math.Sin(c)
	// R = Rz(a) Ry(b) Rx(c)
	r := [3][3]float64{
		{ca * cb, ca*sb*sc - sa*cc, ca*sb*cc + sa*sc},
		{sa * cb, sa*sb*sc + ca*cc, sa*sb*cc - ca*sc},
		{-sb, cb * sc, cb * cc},
	}
	out := &molecule.Molecule{Name: mol.Name + "-rot", Charge: mol.Charge}
	for _, at := range mol.Atoms {
		var p [3]float64
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				p[i] += r[i][j] * at.Pos[j]
			}
		}
		out.Atoms = append(out.Atoms, molecule.Atom{Z: at.Z, Symbol: at.Symbol, Pos: p})
	}
	return out
}

func TestRotationInvariance(t *testing.T) {
	// The RHF energy is invariant under rigid rotation of the molecule.
	// This exercises every integral type at every angular momentum (the
	// d components mix heavily under rotation).
	for _, tc := range []struct {
		mol *molecule.Molecule
		set string
	}{
		{molecule.Water(), "sto-3g"},
		{molecule.Methane(), "6-31g(d)"},
	} {
		base, _ := serialSCF(t, tc.mol, tc.set, Options{})
		rot, _ := serialSCF(t, rotate(tc.mol, 0.7, -1.2, 2.1), tc.set, Options{})
		if !base.Converged || !rot.Converged {
			t.Fatalf("%s/%s: convergence failure", tc.mol.Name, tc.set)
		}
		if diff := math.Abs(base.Energy - rot.Energy); diff > 1e-8 {
			t.Fatalf("%s/%s: rotation changed the energy by %v", tc.mol.Name, tc.set, diff)
		}
	}
}

func TestTranslationInvariance(t *testing.T) {
	base, _ := serialSCF(t, molecule.Water(), "6-31g", Options{})
	shifted := molecule.Water()
	for i := range shifted.Atoms {
		shifted.Atoms[i].Pos[0] += 7.3
		shifted.Atoms[i].Pos[1] -= 2.1
		shifted.Atoms[i].Pos[2] += 0.4
	}
	moved, _ := serialSCF(t, shifted, "6-31g", Options{})
	if diff := math.Abs(base.Energy - moved.Energy); diff > 1e-8 {
		t.Fatalf("translation changed the energy by %v", diff)
	}
}

func TestNanoribbonBenzeneRHF(t *testing.T) {
	// The smallest nanoribbon cut is benzene on the graphene lattice
	// (r_CC = 1.42); its RHF energy must land near the idealized benzene
	// builder's (r_CC = 1.39).
	if testing.Short() {
		t.Skip("benzene-sized SCF")
	}
	ribbon := molecule.GrapheneNanoribbon(3.0, 2.6)
	res, _ := serialSCF(t, ribbon, "sto-3g", Options{MaxIter: 150})
	if !res.Converged {
		t.Fatal("ribbon benzene did not converge")
	}
	ref, _ := serialSCF(t, molecule.Benzene(), "sto-3g", Options{MaxIter: 150})
	if math.Abs(res.Energy-ref.Energy) > 0.2 {
		t.Fatalf("ribbon %v vs idealized benzene %v", res.Energy, ref.Energy)
	}
}

func TestCheckpointRoundTripAndWarmStart(t *testing.T) {
	b, _ := basis.Build(molecule.Water(), "sto-3g")
	eng := integrals.NewEngine(b)
	sch := integrals.ComputeSchwarz(eng)
	cold, err := RunRHF(eng, SerialBuilder(eng, sch, 0), Options{})
	if err != nil || !cold.Converged {
		t.Fatal("cold SCF failed")
	}
	data, err := EncodeCheckpoint("water", "sto-3g", cold)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if cp.Molecule != "water" || cp.Basis != "sto-3g" || !cp.Converged {
		t.Fatalf("checkpoint metadata: %+v", cp)
	}
	if math.Abs(cp.Energy-cold.Energy) > 1e-12 {
		t.Fatal("energy not preserved")
	}
	// Warm start: converges in fewer iterations to the same energy.
	warm, err := RunRHF(eng, SerialBuilder(eng, sch, 0),
		Options{InitialDensity: cp.DensityMatrix()})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Converged || math.Abs(warm.Energy-cold.Energy) > 1e-8 {
		t.Fatalf("warm restart: conv=%v E=%v vs %v", warm.Converged, warm.Energy, cold.Energy)
	}
	if warm.Iterations >= cold.Iterations {
		t.Fatalf("warm start took %d iterations vs cold %d", warm.Iterations, cold.Iterations)
	}
}

func TestCheckpointValidation(t *testing.T) {
	if _, err := LoadCheckpoint(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("bad JSON accepted")
	}
	if _, err := LoadCheckpoint(bytes.NewReader([]byte(`{"num_bf":3,"density":[1,2]}`))); err == nil {
		t.Fatal("inconsistent density accepted")
	}
	if _, err := EncodeCheckpoint("m", "b", &Result{}); err == nil {
		t.Fatal("empty result accepted")
	}
	// Dimension mismatch on warm start.
	b, _ := basis.Build(molecule.H2(), "sto-3g")
	eng := integrals.NewEngine(b)
	sch := integrals.ComputeSchwarz(eng)
	if _, err := RunRHF(eng, SerialBuilder(eng, sch, 0),
		Options{InitialDensity: linalg.NewSquare(5)}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

package integrals

import (
	"math"
	"slices"
	"testing"

	"repro/internal/basis"
	"repro/internal/integrals/oracle"
	"repro/internal/linalg"
	"repro/internal/molecule"
)

func buildBasis(t testing.TB, m *molecule.Molecule, set string) *basis.Basis {
	t.Helper()
	b, err := basis.Build(m, set)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// twoCenterMol places two hydrogens at separation r (bohr) for analytic
// primitive checks; the exponents are overridden per test.
func gaussPair(expA, expB, r float64) *basis.Basis {
	m := &molecule.Molecule{Name: "pair"}
	m.Atoms = []molecule.Atom{
		{Z: 1, Symbol: "H", Pos: [3]float64{0, 0, 0}},
		{Z: 1, Symbol: "H", Pos: [3]float64{0, 0, r}},
	}
	b := &basis.Basis{Mol: m}
	sh := func(atom int, pos [3]float64, exp float64, off int) basis.Shell {
		s := basis.Shell{Atom: atom, Center: pos, Moments: []int{0},
			Exps: []float64{exp}, Coefs: [][]float64{{1}}, BFOffset: off}
		return s
	}
	b.Shells = []basis.Shell{
		sh(0, m.Atoms[0].Pos, expA, 0),
		sh(1, m.Atoms[1].Pos, expB, 1),
	}
	// Normalize like Build does.
	for i := range b.Shells {
		normalizeShell(&b.Shells[i])
	}
	b.NumBF = 2
	return b
}

// normalizeShell mirrors Shell.normalize for hand-built shells (that method
// is unexported to the basis package; redo the s-function case here).
func normalizeShell(s *basis.Shell) {
	for mi, l := range s.Moments {
		if l != 0 {
			panic("test helper handles s shells only")
		}
		for p, a := range s.Exps {
			s.Coefs[mi][p] *= math.Pow(2*a/math.Pi, 0.75)
		}
		self := 0.0
		for p, ap := range s.Exps {
			for q, aq := range s.Exps {
				self += s.Coefs[mi][p] * s.Coefs[mi][q] * math.Pow(math.Pi/(ap+aq), 1.5)
			}
		}
		for p := range s.Coefs[mi] {
			s.Coefs[mi][p] /= math.Sqrt(self)
		}
	}
}

func TestOverlapPrimitiveAnalytic(t *testing.T) {
	// For normalized s Gaussians with exponents a, b at distance R:
	// S = (4ab/(a+b)^2)^{3/4} exp(-ab R^2 / (a+b))
	a, b, r := 0.7, 1.3, 1.1
	bas := gaussPair(a, b, r)
	e := NewEngine(bas)
	s := e.Overlap()
	want := math.Pow(4*a*b/((a+b)*(a+b)), 0.75) * math.Exp(-a*b*r*r/(a+b))
	if math.Abs(s.At(0, 1)-want) > 1e-13 {
		t.Fatalf("S01 = %v want %v", s.At(0, 1), want)
	}
	if math.Abs(s.At(0, 0)-1) > 1e-13 || math.Abs(s.At(1, 1)-1) > 1e-13 {
		t.Fatalf("diagonal overlaps not 1: %v %v", s.At(0, 0), s.At(1, 1))
	}
}

func TestKineticPrimitiveAnalytic(t *testing.T) {
	// Same-center normalized s primitives, exponents a = b:
	// T_00 = 3a/2 for a normalized s Gaussian.
	a := 0.9
	bas := gaussPair(a, a, 0)
	// Collapse to one center.
	bas.Shells[1].Center = bas.Shells[0].Center
	e := NewEngine(bas)
	k := e.Kinetic()
	if math.Abs(k.At(0, 0)-1.5*a) > 1e-12 {
		t.Fatalf("T00 = %v want %v", k.At(0, 0), 1.5*a)
	}
}

func TestNuclearPrimitiveAnalytic(t *testing.T) {
	// Normalized s Gaussian with exponent a centered on a nucleus Z=1:
	// <1/r> = N^2 * 4pi * int r exp(-2ar^2) dr = (2a/pi)^{3/2} * pi/a
	//       = 2 sqrt(2a/pi), so V = -2 sqrt(2a/pi).
	a := 1.24
	m := &molecule.Molecule{Name: "H"}
	m.Atoms = []molecule.Atom{{Z: 1, Symbol: "H", Pos: [3]float64{0, 0, 0}}}
	b := &basis.Basis{Mol: m, NumBF: 1}
	b.Shells = []basis.Shell{{Atom: 0, Moments: []int{0}, Exps: []float64{a}, Coefs: [][]float64{{1}}}}
	normalizeShell(&b.Shells[0])
	e := NewEngine(b)
	v := e.Nuclear()
	want := -2 * math.Sqrt(2*a/math.Pi)
	if math.Abs(v.At(0, 0)-want) > 1e-12 {
		t.Fatalf("V00 = %v want %v", v.At(0, 0), want)
	}
}

func TestERIPrimitiveAnalytic(t *testing.T) {
	// (ss|ss) on one center, all exponents a, normalized:
	// (aa|aa) = sqrt(2/pi) * sqrt(a) * 2/sqrt(2)... known value:
	// (ss|ss) = sqrt(2 a / pi) * 2 / sqrt(2) — derive from formula:
	// (ab|cd) = 2 pi^{5/2} / (p q sqrt(p+q)) N^4 with p=q=2a, F_0(0)=1.
	a := 0.8
	bas := gaussPair(a, a, 0)
	bas.Shells[1].Center = bas.Shells[0].Center
	got := oracle.New(bas).ShellQuartet(0, 0, 0, 0, nil)[0]
	n := math.Pow(2*a/math.Pi, 0.75)
	p := 2 * a
	want := 2 * math.Pow(math.Pi, 2.5) / (p * p * math.Sqrt(p+p)) * math.Pow(n, 4)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("(ss|ss) = %v want %v", got, want)
	}
}

func TestERIPermutationalSymmetry(t *testing.T) {
	// Shell-level 8-fold symmetry on distinct shells with mixed angular
	// momenta (O L-shell is index 1 in water/STO-3G).
	b := buildBasis(t, molecule.Water(), "sto-3g")
	e := oracle.New(b)
	i, j, k, l := 1, 0, 2, 3
	nf := func(s int) int { return b.Shells[s].NumFuncs() }
	base := e.ShellQuartet(i, j, k, l, nil)
	at := func(blk []float64, n1, n2, n3 int, a, b2, c, d int) float64 {
		return blk[((a*n1+b2)*n2+c)*n3+d]
	}
	braSwap := e.ShellQuartet(j, i, k, l, nil)
	ketSwap := e.ShellQuartet(i, j, l, k, nil)
	braKet := e.ShellQuartet(k, l, i, j, nil)
	for fa := 0; fa < nf(i); fa++ {
		for fb := 0; fb < nf(j); fb++ {
			for fc := 0; fc < nf(k); fc++ {
				for fd := 0; fd < nf(l); fd++ {
					want := at(base, nf(j), nf(k), nf(l), fa, fb, fc, fd)
					checks := []float64{
						at(braSwap, nf(i), nf(k), nf(l), fb, fa, fc, fd),
						at(ketSwap, nf(j), nf(l), nf(k), fa, fb, fd, fc),
						at(braKet, nf(l), nf(i), nf(j), fc, fd, fa, fb),
					}
					for pi, got := range checks {
						if math.Abs(got-want) > 1e-10 {
							t.Fatalf("perm %d mismatch at %d%d%d%d: %v vs %v", pi, fa, fb, fc, fd, got, want)
						}
					}
				}
			}
		}
	}
}

func TestERISymmetryDenseCheck(t *testing.T) {
	// Full tensor for tiny H2/STO-3G: check (ij|kl)=(ji|kl)=(ij|lk)=(kl|ij)
	// at the basis-function level.
	b := buildBasis(t, molecule.H2(), "sto-3g")
	n := b.NumBF
	tensor := oracle.New(b).Tensor()
	at := func(a, b, c, d int) float64 { return tensor[((a*n+b)*n+c)*n+d] }
	for a := 0; a < n; a++ {
		for b2 := 0; b2 < n; b2++ {
			for c := 0; c < n; c++ {
				for d := 0; d < n; d++ {
					v := at(a, b2, c, d)
					for _, w := range []float64{at(b2, a, c, d), at(a, b2, d, c), at(c, d, a, b2)} {
						if math.Abs(v-w) > 1e-11 {
							t.Fatalf("8-fold symmetry broken at %d%d%d%d: %v vs %v", a, b2, c, d, v, w)
						}
					}
				}
			}
		}
	}
}

func TestOverlapMatrixProperties(t *testing.T) {
	for _, set := range []string{"sto-3g", "6-31g", "6-31g(d)"} {
		b := buildBasis(t, molecule.Water(), set)
		e := NewEngine(b)
		s := e.Overlap()
		if !s.IsSymmetric(1e-12) {
			t.Fatalf("%s: S not symmetric", set)
		}
		for i := 0; i < s.Rows; i++ {
			if math.Abs(s.At(i, i)-1) > 1e-10 {
				t.Fatalf("%s: S[%d,%d] = %v, want 1 (normalization)", set, i, i, s.At(i, i))
			}
		}
		// S must be positive definite.
		vals, _ := linalg.EigenSym(s)
		if vals[0] <= 0 {
			t.Fatalf("%s: overlap not positive definite: %v", set, vals[0])
		}
	}
}

func TestKineticMatrixProperties(t *testing.T) {
	b := buildBasis(t, molecule.Water(), "6-31g(d)")
	e := NewEngine(b)
	k := e.Kinetic()
	if !k.IsSymmetric(1e-11) {
		t.Fatal("T not symmetric")
	}
	// Kinetic energy matrix is positive definite.
	vals, _ := linalg.EigenSym(k)
	if vals[0] <= 0 {
		t.Fatalf("T not positive definite: min eig %v", vals[0])
	}
}

func TestNuclearMatrixProperties(t *testing.T) {
	b := buildBasis(t, molecule.Water(), "sto-3g")
	e := NewEngine(b)
	v := e.Nuclear()
	if !v.IsSymmetric(1e-11) {
		t.Fatal("V not symmetric")
	}
	for i := 0; i < v.Rows; i++ {
		if v.At(i, i) >= 0 {
			t.Fatalf("V[%d,%d] = %v, expected negative (attraction)", i, i, v.At(i, i))
		}
	}
}

func TestCoreHamiltonian(t *testing.T) {
	b := buildBasis(t, molecule.H2(), "sto-3g")
	e := NewEngine(b)
	h := e.CoreHamiltonian()
	want := e.Kinetic()
	want.AxpyFrom(1, e.Nuclear())
	if h.MaxAbsDiff(want) > 1e-14 {
		t.Fatal("H != T + V")
	}
}

func TestSchwarzBoundsHold(t *testing.T) {
	// The Schwarz inequality must bound every actual quartet max element.
	b := buildBasis(t, molecule.Water(), "sto-3g")
	sch := ComputeSchwarz(NewEngine(b))
	e := oracle.New(b)
	var buf []float64
	ns := len(b.Shells)
	for i := 0; i < ns; i++ {
		for j := 0; j <= i; j++ {
			for k := 0; k < ns; k++ {
				for l := 0; l <= k; l++ {
					buf = e.ShellQuartet(i, j, k, l, buf)
					maxv := 0.0
					for _, x := range buf {
						if a := math.Abs(x); a > maxv {
							maxv = a
						}
					}
					if maxv > sch.Bound(i, j, k, l)+1e-10 {
						t.Fatalf("Schwarz bound violated for (%d%d|%d%d): %v > %v",
							i, j, k, l, maxv, sch.Bound(i, j, k, l))
					}
				}
			}
		}
	}
}

func TestSchwarzScreenedAndPairs(t *testing.T) {
	b := buildBasis(t, molecule.GrapheneFlake(6), "sto-3g")
	e := NewEngine(b)
	sch := ComputeSchwarz(e)
	if sch.MaxQ() <= 0 {
		t.Fatal("MaxQ must be positive")
	}
	all := sch.SurvivingPairs(0)
	if len(all) != sch.NShells*(sch.NShells+1)/2 {
		t.Fatal("zero threshold must keep all pairs")
	}
	tight := sch.SurvivingPairs(1e-4)
	if len(tight) >= len(all) {
		t.Fatalf("screening removed nothing: %d vs %d", len(tight), len(all))
	}
	// Screened() must agree with Bound().
	if sch.Screened(0, 0, 0, 0, sch.Bound(0, 0, 0, 0)+1) != true {
		t.Fatal("Screened disagrees with Bound")
	}
}

func TestERIDecaysWithDistance(t *testing.T) {
	// (ss|ss) between distant pairs must be far smaller than near pairs.
	far := gaussPair(1.0, 1.0, 20.0)
	near := gaussPair(1.0, 1.0, 1.0)
	vFar := oracle.New(far).ShellQuartet(0, 0, 1, 1, nil)[0]
	vNear := oracle.New(near).ShellQuartet(0, 0, 1, 1, nil)[0]
	// (00|11) is a charge-charge interaction ~ 1/R: ratio ~ 1/20.
	if vFar >= vNear {
		t.Fatalf("ERI did not decay: %v vs %v", vFar, vNear)
	}
	if math.Abs(vFar-1.0/20.0) > 0.01 {
		t.Fatalf("far (00|11) = %v, want ~ 1/R = 0.05", vFar)
	}
}

// TestOneElectronMatchesOracle holds the one-electron walk to the
// oracle's element-wise, nucleus-by-nucleus blocks: S bit for bit (the same
// sums in the same order), T, V and H to 1e-13.
func TestOneElectronMatchesOracle(t *testing.T) {
	for _, c := range []struct {
		mol func(testing.TB) *molecule.Molecule
		set string
	}{
		{func(testing.TB) *molecule.Molecule { return molecule.H2() }, "sto-3g"},
		{func(testing.TB) *molecule.Molecule { return molecule.Water() }, "sto-3g"},
		{func(testing.TB) *molecule.Molecule { return molecule.Benzene() }, "sto-3g"},
		{benchDimer, "6-31g(d)"},
		{func(testing.TB) *molecule.Molecule { return molecule.Methane() }, "6-31g(d)"},
		{func(testing.TB) *molecule.Molecule { return molecule.GrapheneFlake(4) }, "sto-3g"},
	} {
		m := c.mol(t)
		b := buildBasis(t, m, c.set)
		e := NewEngine(b)
		s, tk, v := oracle.New(b).OneElectron()
		h := tk.Clone()
		h.AxpyFrom(1, v)
		if got := e.Overlap(); !slices.Equal(got.Data, s.Data) {
			t.Errorf("%s/%s: S differs from the oracle by %v, want bit-identical", m.Name, c.set, got.MaxAbsDiff(s))
		}
		for _, x := range []struct {
			name      string
			got, want *linalg.Matrix
		}{{"T", e.Kinetic(), tk}, {"V", e.Nuclear(), v}, {"H", e.CoreHamiltonian(), h}} {
			if d := x.got.MaxAbsDiff(x.want); d > 1e-13 {
				t.Errorf("%s/%s: %s differs from the oracle by %v", m.Name, c.set, x.name, d)
			}
		}
	}
}

// TestCoreHamiltonianAllocations pins the allocations of the one-time
// integrals of water/STO-3G. Each one-electron matrix is one walk whose
// scratch is allocated once per call, nothing per shell pair or primitive
// pair. The pair builder behind ComputeSchwarz and NewPairCache keeps the
// E tables of a shell pair in one buffer it reuses; what is left is its
// index tables and scratch, the pair records NewPairCache returns, and the
// one pair ComputeSchwarz reuses. The race detector moves those two
// counts, not the one-electron ones.
func TestCoreHamiltonianAllocations(t *testing.T) {
	e := NewEngine(buildBasis(t, molecule.Water(), "sto-3g"))
	for _, c := range []struct {
		name string
		want float64
		f    func()
	}{
		{"CoreHamiltonian", 23, func() { e.CoreHamiltonian() }},
		{"Overlap", 16, func() { e.Overlap() }},
		{"ComputeSchwarz", 55, func() { ComputeSchwarz(e) }},
		{"NewPairCache", 93, func() { NewPairCache(e, 0) }},
	} {
		if raceEnabled && c.name != "CoreHamiltonian" && c.name != "Overlap" {
			continue
		}
		if n := testing.AllocsPerRun(5, c.f); n != c.want {
			t.Errorf("%s of water/STO-3G: %v allocations, want %v", c.name, n, c.want)
		}
	}
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

package fock

import (
	"math/rand"
	"testing"

	"repro/internal/basis"
	"repro/internal/ddi"
	"repro/internal/integrals"
	"repro/internal/integrals/oracle"
	"repro/internal/linalg"
	"repro/internal/molecule"
	"repro/internal/mpi"
)

// serialBuild is the restricted serial build on the direct oracle: the
// reference every preset is held to.
func serialBuild(eng *integrals.Engine, sch *integrals.Schwarz, d *linalg.Matrix, tau float64) (*linalg.Matrix, Stats) {
	g, st := SerialBuildN(eng, oracle.New(eng.Basis), sch, tau).Build(RHF(Dense(d)))
	return g[0], st
}

// flatSource is an ERI source with no scratch of its own: every block is
// the walker's buffer, grown once, with every element 1e-3. A build over
// it allocates only what the build itself does, whatever the kernel's
// scratch pool would add.
type flatSource []basis.Shell

func (s flatSource) ShellQuartet(i, j, k, l int, out []float64) []float64 {
	n := s[i].NumFuncs() * s[j].NumFuncs() * s[k].NumFuncs() * s[l].NumFuncs()
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	for x := range out {
		out[x] = 1e-3
	}
	return out
}

// testDensity builds a plausible symmetric positive density-like matrix
// from the core Hamiltonian guess so the Fock builders are exercised with
// realistic magnitudes (not just random noise).
func testDensity(eng *integrals.Engine, nocc int) *linalg.Matrix {
	return orbitalDensity(eng, 0, nocc, 2)
}

// orbitalDensity fills core-guess orbitals [lo, hi) with occ electrons
// each.
func orbitalDensity(eng *integrals.Engine, lo, hi int, occ float64) *linalg.Matrix {
	h := eng.CoreHamiltonian()
	s := eng.Overlap()
	x, err := linalg.LowdinOrthogonalizer(s, 1e-10)
	if err != nil {
		panic(err)
	}
	fp := linalg.TripleProduct(x, h)
	_, cp := linalg.EigenSym(fp)
	c := linalg.Mul(x, cp)
	n := eng.Basis.NumBF
	d := linalg.NewSquare(n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			sum := 0.0
			for o := lo; o < hi; o++ {
				sum += c.At(a, o) * c.At(b, o)
			}
			d.Set(a, b, occ*sum)
		}
	}
	return d
}

func setup(t testing.TB, mol *molecule.Molecule, set string) (*integrals.Engine, *integrals.Schwarz, *linalg.Matrix) {
	t.Helper()
	b, err := basis.Build(mol, set)
	if err != nil {
		t.Fatal(err)
	}
	eng := integrals.NewEngine(b)
	sch := integrals.ComputeSchwarz(eng)
	d := testDensity(eng, mol.NumElectrons()/2)
	return eng, sch, d
}

func TestSerialMatchesDenseReference(t *testing.T) {
	// The fundamental correctness check: the symmetry-folded quartet loop
	// must reproduce the textbook dense contraction.
	for _, tc := range []struct {
		mol *molecule.Molecule
		set string
	}{
		{molecule.H2(), "sto-3g"},
		{molecule.Water(), "sto-3g"},
		{molecule.Water(), "6-31g"},
	} {
		eng, sch, d := setup(t, tc.mol, tc.set)
		got, stats := serialBuild(eng, sch, d, 1e-14)
		want := oracle.New(eng.Basis).Fock2e(d)
		if diff := got.MaxAbsDiff(want); diff > 1e-9 {
			t.Fatalf("%s/%s: serial vs dense reference diff = %v", tc.mol.Name, tc.set, diff)
		}
		if stats.QuartetsComputed == 0 {
			t.Fatal("no quartets computed")
		}
	}
}

func TestSerialWithPolarization(t *testing.T) {
	// d functions (6-31G(d) on CH4's carbon) exercise the L=2 paths.
	eng, sch, d := setup(t, molecule.Methane(), "6-31g(d)")
	got, _ := serialBuild(eng, sch, d, 1e-14)
	want := oracle.New(eng.Basis).Fock2e(d)
	if diff := got.MaxAbsDiff(want); diff > 1e-9 {
		t.Fatalf("CH4/6-31G(d): diff = %v", diff)
	}
}

func TestSerialScreeningConsistency(t *testing.T) {
	// A loose threshold must stay close to the tight result and strictly
	// reduce work.
	eng, sch, d := setup(t, molecule.GrapheneFlake(4), "sto-3g")
	tight, st1 := serialBuild(eng, sch, d, 1e-14)
	loose, st2 := serialBuild(eng, sch, d, 1e-6)
	if st2.QuartetsComputed >= st1.QuartetsComputed {
		t.Fatalf("screening removed nothing: %d vs %d", st2.QuartetsComputed, st1.QuartetsComputed)
	}
	if diff := tight.MaxAbsDiff(loose); diff > 1e-4 {
		t.Fatalf("screened result drifted too far: %v", diff)
	}
}

func TestPairIndexRoundTrip(t *testing.T) {
	for ij := 0; ij < 50000; ij++ {
		i, j := PairDecode(ij)
		if j > i || j < 0 {
			t.Fatalf("PairDecode(%d) = (%d,%d) not canonical", ij, i, j)
		}
		if PairIndex(i, j) != ij {
			t.Fatalf("round trip failed at %d: (%d,%d)", ij, i, j)
		}
	}
}

func TestQuartetEnumerationCanonical(t *testing.T) {
	// The (i, j<=i, k<=i, l<=lmax) loops must enumerate every unordered
	// quartet pair {(ij),(kl)} exactly once.
	ns := 7
	seen := map[[2]int]int{}
	for i := 0; i < ns; i++ {
		for j := 0; j <= i; j++ {
			for k := 0; k <= i; k++ {
				lmax := quartetLoopBounds(i, j, k)
				for l := 0; l <= lmax; l++ {
					pab, pcd := PairIndex(i, j), PairIndex(k, l)
					key := [2]int{pab, pcd}
					seen[key]++
				}
			}
		}
	}
	np := NumPairs(ns)
	want := np * (np + 1) / 2
	if len(seen) != want {
		t.Fatalf("enumerated %d distinct pair-pairs, want %d", len(seen), want)
	}
	for key, count := range seen {
		if count != 1 {
			t.Fatalf("pair-pair %v enumerated %d times", key, count)
		}
		if key[1] > key[0] {
			t.Fatalf("non-canonical pair-pair %v", key)
		}
	}
}

func TestSharedFockFlushCounting(t *testing.T) {
	eng, sch, d := setup(t, molecule.Water(), "sto-3g")
	err := mpi.Run(1, func(c *mpi.Comm) {
		_, stats := SharedFockBuild(ddi.New(c), eng, sch, Config{Threads: 2, Quartets: oracle.New(eng.Basis)}).Build(RHF(Dense(d)))
		if stats.Flushes == 0 {
			t.Error("shared-Fock build reported no flushes")
		}
		if stats.QuartetsComputed == 0 {
			t.Error("no quartets computed")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFinalizeSymmetry: F = G + Gᵀ of a blocked accumulator is symmetric
// and exactly what the element-wise lower-triangle accumulation made of
// the same contributions: element (x, y) of G lands at the canonical slot
// (max, min), doubled where x == y. G is random over water/6-31G(d)'s
// shells (s, L and d: blocks with a == b and a != b of every shape).
func TestFinalizeSymmetry(t *testing.T) {
	b, err := basis.Build(molecule.Water(), "6-31g(d)")
	if err != nil {
		t.Fatal(err)
	}
	lay := newBlocking(b.Shells)
	n := lay.n
	rng := rand.New(rand.NewSource(11))
	g := make([]float64, n*n)
	for x := range g {
		g[x] = rng.NormFloat64()
	}
	want := linalg.NewSquare(n)
	for a := range lay.off {
		for b := range lay.off {
			blk := lay.block(g, a, b)
			for r := 0; r < lay.num[a]; r++ {
				for c := 0; c < lay.num[b]; c++ {
					x, y := lay.off[a]+r, lay.off[b]+c
					v := blk[r*lay.num[b]+c]
					if x < y {
						x, y = y, x
					}
					want.Data[x*n+y] += dbl(x, y) * v
				}
			}
		}
	}
	f := lay.finalize(g)
	for x := 0; x < n; x++ {
		for y := 0; y <= x; y++ {
			if got := f.At(x, y); got != want.At(x, y) || f.At(y, x) != got {
				t.Fatalf("F(%d,%d) = %v, F(%d,%d) = %v; the lower reference is %v", x, y, got, y, x, f.At(y, x), want.At(x, y))
			}
		}
	}
}

func TestPairCacheBuilders(t *testing.T) {
	// All builders with a PairCache source must match the direct path.
	eng, sch, d := setup(t, molecule.Water(), "6-31g")
	want, _ := serialBuild(eng, sch, d, DefaultTau)
	pc := integrals.NewPairCache(eng, 0)
	cfg := Config{Threads: 2, Quartets: pc}
	err := mpi.Run(2, func(c *mpi.Comm) {
		dx := ddi.New(c)
		// NOTE: all ranks must run the builders in the same order (each
		// build is a collective); a map literal here would randomize the
		// order per rank and cross-match collectives.
		builders := []struct {
			name string
			f    func() *linalg.Matrix
		}{
			{"mpi-only", func() *linalg.Matrix { m, _ := MPIOnlyBuild(dx, eng, sch, cfg).Build(RHF(Dense(d))); return m[0] }},
			{"private", func() *linalg.Matrix { m, _ := PrivateFockBuild(dx, eng, sch, cfg).Build(RHF(Dense(d))); return m[0] }},
			{"shared", func() *linalg.Matrix { m, _ := SharedFockBuild(dx, eng, sch, cfg).Build(RHF(Dense(d))); return m[0] }},
		}
		for _, b := range builders {
			if diff := b.f().MaxAbsDiff(want); diff > 1e-10 {
				t.Errorf("%s with pair cache: diff %v", b.name, diff)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

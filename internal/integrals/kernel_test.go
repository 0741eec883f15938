package integrals

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/basis"
	"repro/internal/molecule"
)

// The contract of the production ERI kernel (PairCache.ShellQuartet):
// allocation-free in steady state, a pure function of (i,j,k,l) under
// concurrent use of one cache, and equal to the direct engine.

// c2Probes are the five probe quartets of bench/probes.go on C2/6-31G(d):
// shells 0..3 sit on atom 0 (S, L, L', D), 4..7 on atom 1.
var c2Probes = []struct {
	name       string
	i, j, k, l int
}{
	{"ssss", 4, 0, 4, 0}, {"slsl", 5, 0, 5, 0}, {"llll", 5, 1, 5, 1},
	{"lldd", 5, 1, 7, 3}, {"dddd", 7, 3, 7, 3},
}

func c2Basis(t testing.TB) *basis.Basis {
	m := &molecule.Molecule{Name: "C2"}
	m.AddAtomAngstrom("C", 0, 0, 0)
	m.AddAtomAngstrom("C", 0, 0, molecule.CCBond)
	return buildBasis(t, m, "6-31g(d)")
}

// forCanonicalQuartets visits every symmetry-unique quartet: i >= j,
// k >= l, (ij) >= (kl).
func forCanonicalQuartets(ns int, visit func(i, j, k, l int)) {
	for i := 0; i < ns; i++ {
		for j := 0; j <= i; j++ {
			for k := 0; k <= i; k++ {
				lmax := k
				if k == i {
					lmax = j
				}
				for l := 0; l <= lmax; l++ {
					visit(i, j, k, l)
				}
			}
		}
	}
}

// displacedWaterDimer is two waters, the second rotated by a seeded
// random rotation and displaced by a seeded random vector of 2.5-3.5
// angstrom: a geometry with no axis alignment and no symmetry.
func displacedWaterDimer(seed int64) *molecule.Molecule {
	rng := rand.New(rand.NewSource(seed))
	// Rotation from a random unit quaternion.
	var q [4]float64
	norm := 0.0
	for i := range q {
		q[i] = rng.NormFloat64()
		norm += q[i] * q[i]
	}
	for i := range q {
		q[i] /= math.Sqrt(norm)
	}
	w, x, y, z := q[0], q[1], q[2], q[3]
	rot := [3][3]float64{
		{1 - 2*(y*y+z*z), 2 * (x*y - z*w), 2 * (x*z + y*w)},
		{2 * (x*y + z*w), 1 - 2*(x*x+z*z), 2 * (y*z - x*w)},
		{2 * (x*z - y*w), 2 * (y*z + x*w), 1 - 2*(x*x+y*y)},
	}
	var shift [3]float64
	norm = 0
	for i := range shift {
		shift[i] = rng.NormFloat64()
		norm += shift[i] * shift[i]
	}
	dist := (2.5 + rng.Float64()) * molecule.BohrPerAngstrom
	for i := range shift {
		shift[i] *= dist / math.Sqrt(norm)
	}
	m := &molecule.Molecule{Name: "displaced water dimer"}
	m.Atoms = append(m.Atoms, molecule.Water().Atoms...)
	for _, a := range molecule.Water().Atoms {
		var p [3]float64
		for r := 0; r < 3; r++ {
			p[r] = rot[r][0]*a.Pos[0] + rot[r][1]*a.Pos[1] + rot[r][2]*a.Pos[2] + shift[r]
		}
		a.Pos = p
		m.Atoms = append(m.Atoms, a)
	}
	return m
}

// matchEngine checks the cache against the direct engine on every
// canonical quartet of b to 1e-11 absolute, and ComputeSchwarz against the
// direct engine's Q to 1e-12 relative.
func matchEngine(t *testing.T, name string, b *basis.Basis) {
	t.Helper()
	eng := NewEngine(b)
	pc := NewPairCache(eng, 0)
	var direct, cached []float64
	forCanonicalQuartets(len(b.Shells), func(i, j, k, l int) {
		direct = eng.ShellQuartet(i, j, k, l, direct)
		cached = pc.ShellQuartet(i, j, k, l, cached)
		if len(direct) != len(cached) {
			t.Fatalf("%s (%d%d|%d%d): %d values vs %d", name, i, j, k, l, len(cached), len(direct))
		}
		for n := range direct {
			if d := math.Abs(direct[n] - cached[n]); !(d <= 1e-11) {
				t.Fatalf("%s (%d%d|%d%d)[%d]: %v vs %v", name, i, j, k, l, n, cached[n], direct[n])
			}
		}
	})
	matchSchwarz(t, name, eng)
}

func TestKernelMatchesEngine(t *testing.T) {
	for _, tc := range []struct {
		mol *molecule.Molecule
		set string
	}{
		{molecule.Water(), "sto-3g"},
		{molecule.Water(), "6-31g"},
		{molecule.Methane(), "6-31g(d)"},
		{displacedWaterDimer(20), "6-31g(d)"},
	} {
		matchEngine(t, tc.mol.Name+"/"+tc.set, buildBasis(t, tc.mol, tc.set))
	}
}

// fShellGBS is a test basis with an f shell: the .gbs parser accepts F,
// so the kernel's tables must be sized for it (total order 12).
const fShellGBS = `****
H     0
S   2   1.00
      1.30000000             0.40000000
      0.30000000             0.70000000
P   1   1.00
      0.80000000             1.00000000
F   1   1.00
      0.90000000             1.00000000
****
`

func TestKernelHandlesFShells(t *testing.T) {
	if err := basis.RegisterGBS("kernel-test-f", fShellGBS); err != nil {
		t.Fatal(err)
	}
	m := &molecule.Molecule{Name: "H2 off-axis"}
	m.AddAtomAngstrom("H", 0, 0, 0)
	m.AddAtomAngstrom("H", 0.31, -0.47, 0.62)
	b := buildBasis(t, m, "kernel-test-f")
	if b.MaxL() != basis.F {
		t.Fatalf("basis MaxL = %d, want an f shell", b.MaxL())
	}
	matchEngine(t, "H2/f", b)
}

func TestKernelAllocatesNothing(t *testing.T) {
	pc := NewPairCache(NewEngine(c2Basis(t)), 0)
	var buf []float64
	for _, c := range c2Probes {
		call := func() { buf = pc.ShellQuartet(c.i, c.j, c.k, c.l, buf) }
		if n := testing.AllocsPerRun(10, call); n != 0 {
			t.Errorf("%s: %v allocations per quartet, want 0", c.name, n)
		}
	}

	// A whole Fock build's worth: benzene's Schwarz-surviving quartets.
	b := buildBasis(t, molecule.Benzene(), "sto-3g")
	eng := NewEngine(b)
	sch := ComputeSchwarz(eng)
	pc = NewPairCache(eng, 0)
	const tau = 1e-10 // fock.DefaultTau
	quartets := 0
	walk := func() {
		quartets = 0
		forCanonicalQuartets(len(b.Shells), func(i, j, k, l int) {
			if !sch.Screened(i, j, k, l, tau) {
				quartets++
				buf = pc.ShellQuartet(i, j, k, l, buf)
			}
		})
	}
	if n := testing.AllocsPerRun(1, walk); n != 0 {
		t.Errorf("benzene walk: %v allocations over %d quartets, want 0", n, quartets)
	}
	if quartets != 13146 {
		t.Errorf("benzene walk: %d surviving quartets, want 13146", quartets)
	}
}

func TestKernelConcurrentBitIdentical(t *testing.T) {
	b := buildBasis(t, molecule.Methane(), "6-31g(d)")
	pc := NewPairCache(NewEngine(b), 0)
	type quartet struct{ i, j, k, l int }
	var list []quartet
	var want [][]float64
	forCanonicalQuartets(len(b.Shells), func(i, j, k, l int) {
		list = append(list, quartet{i, j, k, l})
		want = append(want, pc.ShellQuartet(i, j, k, l, nil))
	})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker walks the list in its own order, so the scratch a
			// call picks up was last used on a different shell class.
			var buf []float64
			step := []int{1, 3, 5, 7, 11, 13, 17, 19}[w]
			for n := range list {
				at := (w*len(list)/workers + n*step) % len(list)
				q := list[at]
				buf = pc.ShellQuartet(q.i, q.j, q.k, q.l, buf)
				for x := range buf {
					if math.Float64bits(buf[x]) != math.Float64bits(want[at][x]) {
						t.Errorf("worker %d (%d%d|%d%d)[%d]: %v, serial pass %v", w, q.i, q.j, q.k, q.l, x, buf[x], want[at][x])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestBoysTableMatchesSeries(t *testing.T) {
	// A grid that straddles the table nodes and the midpoints between them
	// (where the Taylor step is longest), the table edge, and t -> 0.
	var ts []float64
	for i := 0; i <= 600; i++ {
		node := float64(i) * boysStep
		ts = append(ts, node, node+1e-9, node+0.4999*boysStep, node+0.5*boysStep, node+0.5001*boysStep, node+0.077)
	}
	ts = append(ts, 0, 1e-300, 1e-14, 1e-13, 1e-9, 1e-4,
		boysTableMax-1e-12, boysTableMax, boysTableMax+1e-12, boysTableMax+0.01)
	got := make([]float64, 13)
	want := make([]float64, 13)
	for _, tv := range ts {
		for n := 0; n <= 12; n++ {
			Boys(n, tv, got)
			boysSeries(n, tv, want)
			for m := 0; m <= n; m++ {
				if d := math.Abs(got[m] - want[m]); !(d <= 1e-13*want[m]) {
					t.Fatalf("F_%d(%v) called to order %d = %v, series %v (rel %.2e)", m, tv, n, got[m], want[m], d/want[m])
				}
			}
		}
	}
}

// matchSchwarz checks ComputeSchwarz against Q from the direct engine's
// (ij|ij) blocks to 1e-12 relative.
func matchSchwarz(t *testing.T, name string, e *Engine) {
	t.Helper()
	got := ComputeSchwarz(e)
	var buf []float64
	for i := range e.Basis.Shells {
		for j := 0; j <= i; j++ {
			buf = e.ShellQuartet(i, j, i, j, buf)
			nab := e.Basis.Shells[i].NumFuncs() * e.Basis.Shells[j].NumFuncs()
			maxv := 0.0
			for ab := 0; ab < nab; ab++ {
				maxv = math.Max(maxv, math.Abs(buf[ab*nab+ab]))
			}
			if q := math.Sqrt(maxv); !(math.Abs(got.PairQ(i, j)-q) <= 1e-12*q) {
				t.Fatalf("%s Q(%d,%d) = %v, direct engine %v", name, i, j, got.PairQ(i, j), q)
			}
		}
	}
}

func TestSchwarzMatchesDirectEngine(t *testing.T) {
	dimer, err := molecule.ParseXYZ(`6
water dimer (angstrom), bench/testdata/water_dimer.xyz
O  -1.551007  -0.114520   0.000000
H  -1.934259   0.762503   0.000000
H  -0.599677   0.040712   0.000000
O   1.350625   0.111469   0.000000
H   1.680398  -0.373741  -0.758561
H   1.680398  -0.373741   0.758561
`)
	if err != nil {
		t.Fatal(err)
	}
	matchSchwarz(t, "benzene/sto-3g", NewEngine(buildBasis(t, molecule.Benzene(), "sto-3g")))
	matchSchwarz(t, "dimer/6-31g(d)", NewEngine(buildBasis(t, dimer, "6-31g(d)")))
}

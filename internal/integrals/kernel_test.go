package integrals

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/basis"
	"repro/internal/integrals/oracle"
	"repro/internal/molecule"
)

// The contract of the production ERI kernel (PairCache.ShellQuartet):
// allocation-free in steady state, a pure function of (i,j,k,l) under
// concurrent use of one cache, and equal to the direct oracle — with
// either 4-lane body (withBodies).

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

// matchEngine checks the cache against the oracle on every canonical
// quartet of b to 1e-11 absolute, and ComputeSchwarz against the oracle's
// Q to 1e-12 relative.
func matchEngine(t *testing.T, name string, b *basis.Basis) {
	t.Helper()
	eng, ref := NewEngine(b), oracle.New(b)
	pc := NewPairCache(eng, 0)
	var direct, cached []float64
	forCanonicalQuartets(len(b.Shells), func(i, j, k, l int) {
		direct = ref.ShellQuartet(i, j, k, l, direct)
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
	withBodies(t, func(t *testing.T) {
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
	})
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
	withBodies(t, func(t *testing.T) { matchEngine(t, "H2/f", b) })
}

// contractionGBS gives a two-centre basis whose shell pairs keep 1, 2, 3,
// 5, 9 and 18 primitive pairs: full batches, padded ones, and both.
const contractionGBS = `****
H     0
S   1   1.00
      0.60000000             1.00000000
S   2   1.00
      2.10000000             0.45000000
      0.35000000             0.65000000
S   5   1.00
     40.00000000             0.03000000
      9.00000000             0.12000000
      2.60000000             0.35000000
      0.80000000             0.45000000
      0.22000000             0.20000000
S   6   1.00
     90.00000000             0.01000000
     20.00000000             0.05000000
      5.50000000             0.18000000
      1.70000000             0.40000000
      0.55000000             0.35000000
      0.17000000             0.12000000
P   3   1.00
      3.20000000             0.20000000
      0.75000000             0.55000000
      0.19000000             0.45000000
D   1   1.00
      0.70000000             1.00000000
****
`

// TestKernelBatchRemainders checks pairs whose primitive pairs fill 1 to 5
// batches, the last one full or padded, in the ket and (swapped) in the
// bra, and a long-range pair where PrimTol dropped some of them.
func TestKernelBatchRemainders(t *testing.T) {
	if err := basis.RegisterGBS("kernel-test-contractions", contractionGBS); err != nil {
		t.Fatal(err)
	}
	// Shells per atom: 0 S1, 1 S2, 2 S5, 3 S6, 4 P3, 5 D1; atom 1 is 6..11.
	near := &molecule.Molecule{Name: "H2 off-axis"}
	near.AddAtomAngstrom("H", 0, 0, 0)
	near.AddAtomAngstrom("H", 0.42, -0.61, 0.83)
	far := &molecule.Molecule{Name: "H2 far"}
	far.AddAtomAngstrom("H", 0, 0, 0)
	far.AddAtomAngstrom("H", 2.1, -3.0, 4.2)
	withBodies(t, func(t *testing.T) {
		for _, tc := range []struct {
			mol     *molecule.Molecule
			i, j    int
			prims   int
			dropped bool
		}{
			{near, 6, 0, 1, false},  // S1 S1
			{near, 7, 0, 2, false},  // S2 S1
			{near, 10, 0, 3, false}, // P3 S1
			{near, 8, 0, 5, false},  // S5 S1
			{near, 10, 4, 9, false}, // P3 P3
			{near, 9, 4, 18, false}, // S6 P3
			{near, 11, 5, 1, false}, // D1 D1
			{far, 9, 3, 0, true},    // S6 S6, far apart
			{far, 10, 3, 0, true},   // P3 S6
		} {
			b := buildBasis(t, tc.mol, "kernel-test-contractions")
			pc := NewPairCache(NewEngine(b), 0)
			ref := oracle.New(b)
			pd := pc.pair(tc.i, tc.j)
			total := len(b.Shells[tc.i].Exps) * len(b.Shells[tc.j].Exps)
			switch {
			case tc.dropped && (pd.prims == total || pd.prims == 0):
				t.Fatalf("%s (%d,%d): %d of %d primitive pairs kept, want some dropped", tc.mol.Name, tc.i, tc.j, pd.prims, total)
			case !tc.dropped && pd.prims != tc.prims:
				t.Fatalf("%s (%d,%d): %d primitive pairs, want %d", tc.mol.Name, tc.i, tc.j, pd.prims, tc.prims)
			}
			// Against partners with fewer, as many and more primitive pairs,
			// in both orders, so the pair is the batched side and the other.
			var direct, cached []float64
			for _, kl := range [][2]int{{6, 0}, {10, 4}, {9, 3}, {11, 5}, {tc.i, tc.j}} {
				for _, q := range [][4]int{{tc.i, tc.j, kl[0], kl[1]}, {kl[0], kl[1], tc.i, tc.j}} {
					direct = ref.ShellQuartet(q[0], q[1], q[2], q[3], direct)
					cached = pc.ShellQuartet(q[0], q[1], q[2], q[3], cached)
					for n := range direct {
						if d := math.Abs(direct[n] - cached[n]); !(d <= 1e-11) {
							t.Fatalf("%s %v[%d]: %v, oracle %v", tc.mol.Name, q, n, cached[n], direct[n])
						}
					}
				}
			}
		}
	})
}

// TestBatchTermsAreTheLaneUnion: where a term underflows in some lanes of
// a batch and not in others (far-apart centres, no primitive screening,
// as ComputeSchwarz builds), the batch carries the union of the lanes'
// terms, each lane's weight its own and 0 where it has none.
func TestBatchTermsAreTheLaneUnion(t *testing.T) {
	m := &molecule.Molecule{Name: "C2 far"}
	m.AddAtomAngstrom("C", 0, 0, 0)
	m.AddAtomAngstrom("C", 5, 5, 5)
	b := buildBasis(t, m, "6-31g(d)")
	pb := newPairBuilder(b)
	mixed := 0
	for i := range b.Shells {
		for j := 0; j <= i; j++ {
			if b.Shells[i].Atom == b.Shells[j].Atom {
				continue
			}
			pd := pb.build(i, j, 0)
			for _, bt := range pd.batches {
				for _, lt := range bt.terms {
					zero := 0
					for lane := 0; lane < bt.n; lane++ {
						if lt.g[lane] == 0 {
							zero++
						}
					}
					if zero > 0 && zero < bt.n {
						mixed++
					}
					for lane := bt.n; lane < 4; lane++ {
						if lt.g[lane] != 0 {
							t.Fatalf("pair (%d,%d): padding lane %d has weight %v", i, j, lane, lt.g[lane])
						}
					}
				}
			}
			// Each lane alone lists exactly the union's terms that are nonzero
			// in that lane, with the same weight.
			var live []primE
			for p, ap := range b.Shells[i].Exps {
				for q, bq := range b.Shells[j].Exps {
					var ab [3]float64
					for x := range ab {
						ab[x] = b.Shells[i].Center[x] - b.Shells[j].Center[x]
					}
					pe := primE{p: p, q: q, e: newPairE(b.Shells[i].MaxL(), b.Shells[j].MaxL(), ap, bq, ab)}
					if len(pb.collect(i, j, []primE{pe}, true)) > 0 {
						live = append(live, pe)
					}
				}
			}
			if len(live) != pd.prims {
				t.Fatalf("pair (%d,%d): %d live primitive pairs, batches hold %d", i, j, len(live), pd.prims)
			}
			for n, pe := range live {
				bt := &pd.batches[n/4]
				var got []laneTerm
				for _, lt := range bt.terms {
					if lt.g[n%4] != 0 {
						got = append(got, lt)
					}
				}
				var alone []laneTerm // those whose weight did not underflow
				for _, lt := range pb.collect(i, j, []primE{pe}, false) {
					if lt.g[0] != 0 {
						alone = append(alone, lt)
					}
				}
				if len(got) != len(alone) {
					t.Fatalf("pair (%d,%d) lane %d: %d terms in the batch, %d alone", i, j, n, len(got), len(alone))
				}
				for x := range alone {
					if got[x].ab != alone[x].ab || got[x].h != alone[x].h || got[x].g[n%4] != alone[x].g[0] {
						t.Fatalf("pair (%d,%d) lane %d term %d: %+v in the batch, %+v alone", i, j, n, x, got[x], alone[x])
					}
				}
			}
		}
	}
	if mixed == 0 {
		t.Fatal("no batch has a term that is zero in some lanes only; move the atoms")
	}
	withBodies(t, func(t *testing.T) { matchSchwarz(t, m.Name, NewEngine(b)) })
}

func TestKernelAllocatesNothing(t *testing.T) {
	c2 := c2Basis(t)
	// A whole Fock build's worth: benzene's Schwarz-surviving quartets.
	b := buildBasis(t, molecule.Benzene(), "sto-3g")
	eng := NewEngine(b)
	sch := ComputeSchwarz(eng)
	withBodies(t, func(t *testing.T) {
		pc := NewPairCache(NewEngine(c2), 0)
		var buf []float64
		for _, c := range c2Probes {
			call := func() { buf = pc.ShellQuartet(c.i, c.j, c.k, c.l, buf) }
			if n := testing.AllocsPerRun(10, call); n != 0 {
				t.Errorf("%s: %v allocations per quartet, want 0", c.name, n)
			}
		}

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
	})
}

func TestKernelConcurrentBitIdentical(t *testing.T) {
	b := buildBasis(t, molecule.Methane(), "6-31g(d)")
	withBodies(t, func(t *testing.T) {
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
	})
}

// TestKernelBodiesAgree: the assembly body against the pure-Go one, on the
// probe quartets and the whole benzene walk, to 1e-13 of each block's
// largest element (FMA rounds once where Go rounds twice).
func TestKernelBodiesAgree(t *testing.T) {
	if lanes.name == goLanes.name {
		t.Skip("this CPU runs the pure-Go body only")
	}
	selected := lanes
	defer func() { lanes = selected }()
	var probes, walk [][4]int
	for _, c := range c2Probes {
		probes = append(probes, [4]int{c.i, c.j, c.k, c.l})
	}
	bz := buildBasis(t, molecule.Benzene(), "sto-3g")
	sch := ComputeSchwarz(NewEngine(bz))
	forCanonicalQuartets(len(bz.Shells), func(i, j, k, l int) {
		if !sch.Screened(i, j, k, l, 1e-10) {
			walk = append(walk, [4]int{i, j, k, l})
		}
	})
	for _, set := range []struct {
		name     string
		b        *basis.Basis
		quartets [][4]int
	}{
		{"C2/6-31G(d) probes", c2Basis(t), probes},
		{"benzene/STO-3G walk", bz, walk},
	} {
		pc := NewPairCache(NewEngine(set.b), 0)
		worst := 0.0
		var ref, got []float64
		for _, q := range set.quartets {
			lanes = goLanes
			ref = pc.ShellQuartet(q[0], q[1], q[2], q[3], ref)
			lanes = selected
			got = pc.ShellQuartet(q[0], q[1], q[2], q[3], got)
			scale := 0.0
			for _, v := range ref {
				scale = math.Max(scale, math.Abs(v))
			}
			for n := range ref {
				if d := math.Abs(got[n]-ref[n]) / scale; d > worst {
					worst = d
				}
				if d := math.Abs(got[n] - ref[n]); !(d <= 1e-13*scale) {
					t.Fatalf("%s %v[%d]: %s %v, go %v (%.1e of the block's largest)", set.name, q, n, selected.name, got[n], ref[n], d/scale)
				}
			}
		}
		t.Logf("%s: %d quartets, largest difference %.1e of the block's largest element", set.name, len(set.quartets), worst)
	}
}

func TestBoysTableMatchesSeries(t *testing.T) {
	// A grid that straddles the table nodes and the midpoints between them
	// (where the Taylor step is longest), the table edge, and t -> 0; past
	// the grid, the asymptotic form without exp(-t) out to t = 700 (the
	// old grid's edge at 35 included). Every order has its own Taylor step,
	// so every order is checked.
	var ts []float64
	for i := 0; i < boysNodes; i++ {
		node := float64(i) * boysStep
		ts = append(ts, node, node+1e-9, node+0.4999*boysStep, node+0.5*boysStep, node+0.5001*boysStep, node+0.077)
	}
	for tv := boysTableMax + 0.013; tv <= 700; tv *= 1.01 {
		ts = append(ts, tv)
	}
	ts = append(ts, 0, 1e-300, 1e-14, 1e-13, 1e-9, 1e-4, 35+1e-12, 35.01, 37.5, 43.2, 52.6, 61, 83.7,
		boysTableMax-1e-12, boysTableMax, boysTableMax+1e-12, boysTableMax+0.01, 700)
	got := make([]float64, maxBoysOrder+1)
	want := make([]float64, maxBoysOrder+1)
	for _, tv := range ts {
		for n := 0; n <= maxBoysOrder; n++ {
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

// matchSchwarz checks ComputeSchwarz against Q from the oracle's
// (ij|ij) blocks to 1e-12 relative.
func matchSchwarz(t *testing.T, name string, e *Engine) {
	t.Helper()
	got := ComputeSchwarz(e)
	ref := oracle.New(e.Basis)
	var buf []float64
	for i := range e.Basis.Shells {
		for j := 0; j <= i; j++ {
			buf = ref.ShellQuartet(i, j, i, j, buf)
			nab := e.Basis.Shells[i].NumFuncs() * e.Basis.Shells[j].NumFuncs()
			maxv := 0.0
			for ab := 0; ab < nab; ab++ {
				maxv = math.Max(maxv, math.Abs(buf[ab*nab+ab]))
			}
			if q := math.Sqrt(maxv); !(math.Abs(got.PairQ(i, j)-q) <= 1e-12*q) {
				t.Fatalf("%s Q(%d,%d) = %v, oracle %v", name, i, j, got.PairQ(i, j), q)
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

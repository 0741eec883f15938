package fock

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/basis"
	"repro/internal/ddi"
	"repro/internal/distmat"
	"repro/internal/integrals"
	"repro/internal/linalg"
	"repro/internal/molecule"
	"repro/internal/mpi"
)

// refChannel is a channel of the element-wise reference digest: densities
// read one element at a time, updates landed one element at a time.
type refChannel struct {
	DJ, DK func(x, y int) float64
	CJ, CK float64
	add    func(role, x, y int, v float64)
}

// digestElementwise is the reference digest: for every canonical
// basis-function quartet of the block it emits the paper's six updates
// (eqs. 2a-2f), each already carrying the density factor, the channel's
// CJ/CK, the 1/|stabilizer| weight and the diagonal doubling. The
// production digest must agree with it block for block.
func digestElementwise(blk []float64, shells []basis.Shell, i, j, k, l int, chans []refChannel) {
	si, sj, sk, sl := &shells[i], &shells[j], &shells[k], &shells[l]
	ni, nj := si.NumFuncs(), sj.NumFuncs()
	nk, nl := sk.NumFuncs(), sl.NumFuncs()
	oi, oj, ok, ol := si.BFOffset, sj.BFOffset, sk.BFOffset, sl.BFOffset
	idx := 0
	for fa := 0; fa < ni; fa++ {
		a := oi + fa
		for fb := 0; fb < nj; fb++ {
			b := oj + fb
			for fc := 0; fc < nk; fc++ {
				c := ok + fc
				for fd := 0; fd < nl; fd++ {
					d := ol + fd
					val := blk[idx]
					idx++
					// Deduplicate only the symmetry images that fall INSIDE
					// this block, i.e. when shells coincide.
					if i == j && b > a {
						continue
					}
					if k == l && d > c {
						continue
					}
					pab, pcd := PairIndex(a, b), PairIndex(c, d)
					if i == k && j == l && pcd > pab {
						continue
					}
					if val == 0 {
						continue
					}
					s := 1.0
					if a == b {
						s *= 0.5
					}
					if c == d {
						s *= 0.5
					}
					if pab == pcd {
						s *= 0.5
					}
					// With s = 1/|stabilizer|, summing the true contributions
					// of all eight symmetry images of the quartet gives, per
					// target slot: Coulomb 2 s I D and exchange s I D for
					// off-diagonal slots; a diagonal slot (x == y) absorbs
					// both mirror images and receives twice that (dbl).
					v := s * val
					for n := range chans {
						ch := &chans[n]
						if cj := 2 * ch.CJ * v; cj != 0 {
							ch.add(roleAB, a, b, dbl(a, b)*cj*ch.DJ(c, d))
							ch.add(roleCD, c, d, dbl(c, d)*cj*ch.DJ(a, b))
						}
						if ck := ch.CK * v; ck != 0 {
							ch.add(roleAC, a, c, dbl(a, c)*ck*ch.DK(b, d))
							ch.add(roleBD, b, d, dbl(b, d)*ck*ch.DK(a, c))
							ch.add(roleAD, a, d, dbl(a, d)*ck*ch.DK(b, c))
							ch.add(roleBC, b, c, dbl(b, c)*ck*ch.DK(a, d))
						}
					}
				}
			}
		}
	}
}

// dbl is the diagonal-doubling factor of a target slot {x, y}.
func dbl(x, y int) float64 {
	if x == y {
		return 2
	}
	return 1
}

// randomSymmetric is an n x n symmetric matrix of normal deviates.
func randomSymmetric(rng *rand.Rand, n int) *linalg.Matrix {
	m := linalg.NewSquare(n)
	for x := 0; x < n; x++ {
		for y := 0; y <= x; y++ {
			v := rng.NormFloat64()
			m.Set(x, y, v)
			m.Set(y, x, v)
		}
	}
	return m
}

// canonicalQuartets lists every symmetry-unique shell quartet of ns shells
// in the walker's order.
func canonicalQuartets(ns int) [][4]int {
	var qs [][4]int
	for i := 0; i < ns; i++ {
		for j := 0; j <= i; j++ {
			for k := 0; k <= i; k++ {
				for l := 0; l <= quartetLoopBounds(i, j, k); l++ {
					qs = append(qs, [4]int{i, j, k, l})
				}
			}
		}
	}
	return qs
}

// sharedBlocks names every pair of roles ("AC=AD") that some quartet of
// the list hands one and the same Fock block.
func sharedBlocks(quartets [][4]int) map[string]bool {
	names := [numRoles]string{"AB", "CD", "AC", "BD", "AD", "BC"}
	shells := [numRoles][2]int{{0, 1}, {2, 3}, {0, 2}, {1, 3}, {0, 3}, {1, 2}}
	seen := map[string]bool{}
	for _, q := range quartets {
		for r1 := range shells {
			for r2 := r1 + 1; r2 < numRoles; r2++ {
				if q[shells[r1][0]] == q[shells[r2][0]] && q[shells[r1][1]] == q[shells[r2][1]] {
					seen[names[r1]+"="+names[r2]] = true
				}
			}
		}
	}
	return seen
}

// TestDigestMatchesElementwise holds the block-wise digest to the
// element-wise reference: random ERI blocks on every canonical quartet of
// water/6-31G(d) (s, L and d shells, every shell-coincidence pattern and
// every way two roles name one block), the RHF and UHF channel lists,
// through each of the four block-handing sinks, to 1e-14 of the largest
// reference element.
func TestDigestMatchesElementwise(t *testing.T) {
	b, err := basis.Build(molecule.Water(), "6-31g(d)")
	if err != nil {
		t.Fatal(err)
	}
	eng := integrals.NewEngine(b)
	shells, n := b.Shells, b.NumBF
	rng := rand.New(rand.NewSource(7))
	quartets := canonicalQuartets(len(shells))
	blocks := make([][]float64, len(quartets))
	patterns := map[string]bool{}
	for qi, q := range quartets {
		i, j, k, l := q[0], q[1], q[2], q[3]
		size := 1
		for _, sh := range q {
			size *= shells[sh].NumFuncs()
		}
		blocks[qi] = make([]float64, size)
		for x := range blocks[qi] {
			blocks[qi][x] = rng.NormFloat64()
		}
		for name, hit := range map[string]bool{
			"i==j": i == j, "k==l": k == l, "ij==kl": i == k && j == l,
			"i==k": i == k, "j==l": j == l, "i==l": i == l, "j==k": j == k,
			"all four": i == j && j == k && k == l,
		} {
			patterns[name] = patterns[name] || hit
		}
	}
	if len(patterns) != 8 {
		t.Fatalf("patterns %v", patterns)
	}
	for name, hit := range patterns {
		if !hit {
			t.Fatalf("no quartet with %s", name)
		}
	}
	// A sink may hand two roles the same block; the quartet list must hold
	// every way that happens.
	shared := sharedBlocks(quartets)
	for _, want := range []string{
		"AC=BC", "BD=AD", // i == j
		"AC=AD", "BD=BC", // k == l
		"AB=CD", // ij == kl
		"AB=AD", // j == l
		"CD=AD", // i == k
	} {
		if !shared[want] {
			t.Fatalf("no quartet hands roles %s one block (seen %v)", want, shared)
		}
	}
	dens := []*linalg.Matrix{randomSymmetric(rng, n), randomSymmetric(rng, n), randomSymmetric(rng, n)}

	for _, list := range []struct {
		name string
		dens []*linalg.Matrix
	}{{"RHF", dens[:1]}, {"UHF", dens}} {
		// The reference, accumulated into canonical lower triangles.
		refChans := make([]refChannel, len(list.dens))
		want := make([]*linalg.Matrix, len(list.dens))
		for c, d := range list.dens {
			acc := linalg.NewSquare(n)
			want[c] = acc
			refChans[c] = refChannel{DJ: d.At, DK: d.At, CJ: 1, CK: -0.5,
				add: func(_, x, y int, v float64) {
					if x < y {
						x, y = y, x
					}
					acc.Data[x*n+y] += v
				}}
		}
		if len(list.dens) == 3 {
			refChans[0].DK, refChans[0].CK = nil, 0
			refChans[1].DJ, refChans[1].CJ, refChans[1].CK = nil, 0, 1
			refChans[2].DJ, refChans[2].CJ, refChans[2].CK = nil, 0, 1
		}
		for qi, q := range quartets {
			digestElementwise(blocks[qi], shells, q[0], q[1], q[2], q[3], refChans)
		}

		for _, s := range digestSinks {
			t.Run(list.name+"/"+s.name, func(t *testing.T) {
				got := s.run(t, eng, list.dens, quartets, blocks)
				for c := range want {
					scale := 0.0
					for _, v := range want[c].Data {
						scale = math.Max(scale, math.Abs(v))
					}
					for x := 0; x < n; x++ {
						for y := 0; y <= x; y++ {
							if d := math.Abs(got[c].At(x, y) - want[c].At(x, y)); d > 1e-14*scale {
								t.Fatalf("channel %d (%d,%d): got %.17g want %.17g (|diff| %.3g, scale %.3g)",
									c, x, y, got[c].At(x, y), want[c].At(x, y), d, scale)
							}
						}
					}
				}
			})
		}
	}
}

// digestSinks runs the production digest over a quartet list through
// each sink, bound and fed blocked densities by a builder's prologue, and
// returns each channel's F = G + Gᵀ (the tile sink: its lower triangle).
var digestSinks = []struct {
	name string
	run  func(t *testing.T, eng *integrals.Engine, dens []*linalg.Matrix, quartets [][4]int, blocks [][]float64) []*linalg.Matrix
}{
	{"blocked", func(t *testing.T, eng *integrals.Engine, dens []*linalg.Matrix, quartets [][4]int, blocks [][]float64) []*linalg.Matrix {
		b := SerialBuildN(eng, nil, nil, DefaultTau)
		b.prepare(channelsOf(dens, Dense))
		digestAll(b, quartets, blocks, nil)
		return b.close()
	}},
	{"routed", func(t *testing.T, eng *integrals.Engine, dens []*linalg.Matrix, quartets [][4]int, blocks [][]float64) []*linalg.Matrix {
		b := SerialBuildN(eng, nil, nil, DefaultTau)
		b.prepare(channelsOf(dens, Dense))
		lay, n := b.lay, eng.Basis.NumBF
		gs := make([][]float64, len(dens))
		routes := make([]*routedSink, len(dens))
		for c := range gs {
			gs[c] = make([]float64, n*n)
			routes[c] = &routedSink{lay: lay, g: gs[c],
				fi: make([]float64, lay.maxNum*n), fj: make([]float64, lay.maxNum*n)}
			b.lanes[0].chans[c].out = routes[c]
		}
		// The FI/FJ block-row copies are folded into G after every
		// quartet, as the shared-Fock flushes fold them after a task.
		fold := func(g, buf []float64, sh int) {
			row := g[n*lay.off[sh] : n*lay.off[sh]+lay.num[sh]*n]
			for x := range row {
				row[x] += buf[x]
				buf[x] = 0
			}
		}
		digestAll(b, quartets, blocks, func(q [4]int) {
			for c, r := range routes {
				fold(gs[c], r.fi, q[0])
				fold(gs[c], r.fj, q[1])
			}
		})
		return closeBuild(lay, gs)
	}},
	{"pending", func(t *testing.T, eng *integrals.Engine, dens []*linalg.Matrix, quartets [][4]int, blocks [][]float64) []*linalg.Matrix {
		b := ResilientBuild(nil, eng, integrals.ComputeSchwarz(eng), Config{})
		b.prepare(channelsOf(dens, Dense))
		digestAll(b, quartets, blocks, nil)
		// The window the staged block records would accumulate into.
		n := eng.Basis.NumBF
		stage := b.lanes[0].chans[0].out.(*pendingSink).stage
		window := make([]float64, len(dens)*n*n)
		val := stage.val
		for _, blk := range stage.blocks {
			for x, v := range val[:blk.n] {
				window[blk.pos+x] += v
			}
			val = val[blk.n:]
		}
		if len(val) != 0 {
			t.Fatalf("%d staged values past the last block record", len(val))
		}
		gs := make([][]float64, len(dens))
		for c := range gs {
			gs[c] = window[c*n*n : (c+1)*n*n]
		}
		return closeBuild(b.lay, gs)
	}},
	{"tile", func(t *testing.T, eng *integrals.Engine, dens []*linalg.Matrix, quartets [][4]int, blocks [][]float64) []*linalg.Matrix {
		n := eng.Basis.NumBF
		accs := make([]*linalg.Matrix, len(dens))
		err := mpi.Run(1, func(comm *mpi.Comm) {
			dx := ddi.New(comm)
			g := distmat.NewGrid(comm.Rank(), comm.Size())
			readers := make([]*distmat.TileReader, len(dens))
			fs := make([]*distmat.BlockMat, len(dens))
			out := make([]*distmat.TileAccum, len(dens))
			for c, d := range dens {
				dd := distmat.New(g, dx, n, 5)
				if err := dd.ScatterDense(d); err != nil {
					t.Errorf("scatter: %v", err)
					return
				}
				readers[c] = distmat.NewTileReader(dd, 4)
				fs[c] = distmat.New(g, dx, n, 5)
				fs[c].Zero()
				out[c] = distmat.NewTileAccum(fs[c], 4)
			}
			b := TiledBuild(dx, eng, nil, out, Config{})
			b.prepare(channelsOf(readers, FromTiles))
			digestAll(b, quartets, blocks, nil)
			for c, f := range fs {
				out[c].Flush()
				m, err := f.GatherVerified()
				if err != nil {
					t.Errorf("gather: %v", err)
					return
				}
				accs[c] = m
			}
		})
		if err != nil || t.Failed() {
			t.Fatalf("tile world: %v", err)
		}
		return accs
	}},
}

// digestAll runs the production digest of every quartet into the
// channels of b's walker, calling after (if not nil) after each.
func digestAll(b *Builder, quartets [][4]int, blocks [][]float64, after func(q [4]int)) {
	w := &b.lanes[0]
	for qi, q := range quartets {
		digest(blocks[qi], b.lay, q[0], q[1], q[2], q[3], w.chans, &w.sc)
		if after != nil {
			after(q)
		}
	}
}

// waterDimerXYZ is the geometry of the dimer_d_private benchmark workload.
const waterDimerXYZ = `6
water dimer (angstrom)
O  -1.551007  -0.114520   0.000000
H  -1.934259   0.762503   0.000000
H  -0.599677   0.040712   0.000000
O   1.350625   0.111469   0.000000
H   1.680398  -0.373741  -0.758561
H   1.680398  -0.373741   0.758561
`

// BenchmarkDigest times the digest alone: one RHF pass over the ERI
// blocks of every Schwarz-surviving quartet of the two SCF benchmark
// workloads (benzene/STO-3G, the water dimer/6-31G(d)), evaluated once
// outside the timed loop, against a fixed core-guess density into a
// replicated accumulator. ns/bfquartet is per basis-function quartet of
// the blocks (symmetry images inside a block included).
func BenchmarkDigest(b *testing.B) {
	dimer, err := molecule.ParseXYZ(waterDimerXYZ)
	if err != nil {
		b.Fatal(err)
	}
	for _, wl := range []struct {
		name              string
		mol               *molecule.Molecule
		set               string
		quartets, bfQuart int64
	}{
		{"benzene", molecule.Benzene(), "sto-3g", 13146, 243366},
		{"dimer", dimer, "6-31g(d)", 8340, 307695},
	} {
		b.Run(wl.name, func(b *testing.B) {
			eng, sch, d := setup(b, wl.mol, wl.set)
			pc := integrals.NewPairCache(eng, 0)
			shells := eng.Basis.Shells
			type survivor struct {
				q   [4]int
				blk []float64
			}
			var survivors []survivor
			var bfQuart int64
			for _, q := range canonicalQuartets(len(shells)) {
				if sch.Bound(q[0], q[1], q[2], q[3]) < DefaultTau {
					continue
				}
				blk := pc.ShellQuartet(q[0], q[1], q[2], q[3], nil)
				survivors = append(survivors, survivor{q, blk})
				bfQuart += int64(len(blk))
			}
			if int64(len(survivors)) != wl.quartets || bfQuart != wl.bfQuart {
				b.Fatalf("%d surviving quartets, %d basis-function quartets; want %d, %d",
					len(survivors), bfQuart, wl.quartets, wl.bfQuart)
			}
			fb := SerialBuildN(eng, pc, sch, DefaultTau)
			fb.prepare(RHF(Dense(d)))
			w := &fb.lanes[0]
			b.ResetTimer()
			for range b.N {
				for _, s := range survivors {
					digest(s.blk, fb.lay, s.q[0], s.q[1], s.q[2], s.q[3], w.chans, &w.sc)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*bfQuart), "ns/bfquartet")
		})
	}
}

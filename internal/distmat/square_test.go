package distmat

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ddi"
	"repro/internal/linalg"
	"repro/internal/mpi"
)

// tileBits reads every tile of m, padding included, as raw bits.
func tileBits(m *BlockMat) []uint64 {
	buf := make([]float64, m.BS*m.BS)
	var bits []uint64
	for bi := 0; bi < m.NB; bi++ {
		for bj := 0; bj < m.NB; bj++ {
			m.GetTile(bi, bj, buf)
			for _, v := range buf {
				bits = append(bits, math.Float64bits(v))
			}
		}
	}
	return bits
}

// firstBitDiff returns the index of the first differing element, or -1.
func firstBitDiff(a, b []uint64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// paddingNonZero counts tile entries past N whose bits are not +0.
func paddingNonZero(m *BlockMat) int {
	buf := make([]float64, m.BS*m.BS)
	bad := 0
	for bi := 0; bi < m.NB; bi++ {
		for bj := 0; bj < m.NB; bj++ {
			m.GetTile(bi, bj, buf)
			for r := 0; r < m.BS; r++ {
				for c := 0; c < m.BS; c++ {
					if (r >= m.live(bi) || c >= m.live(bj)) && math.Float64bits(buf[r*m.BS+c]) != 0 {
						bad++
					}
				}
			}
		}
	}
	return bad
}

// TestSquareMatchesMatMul: on an exactly symmetric x, Square writes the
// bits MatMul(c, x, x) writes, padding +0, with no put into a tile the
// writing rank does not own, and on ABFT matrices the parity stays
// coherent.
func TestSquareMatchesMatMul(t *testing.T) {
	for _, n := range []int{256, 250, 97} {
		x := randSym(n, int64(n))
		for _, ranks := range []int{1, 2, 3, 4, 6} {
			for _, bs := range []int{0, 64, 32, 16} {
				for _, abft := range []bool{false, true} {
					name := fmt.Sprintf("n=%d/ranks=%d/bs=%d/abft=%v", n, ranks, bs, abft)
					onWorld(t, ranks, func(g *Grid, dx *ddi.Context) {
						mk := New
						if abft {
							mk = NewABFT
						}
						dx0, sq, mm := mk(g, dx, n, bs), mk(g, dx, n, bs), mk(g, dx, n, bs)
						if err := dx0.ScatterDense(x); err != nil {
							t.Errorf("%s: scatter: %v", name, err)
							return
						}
						MatMul(mm, dx0, dx0)
						Square(sq, dx0)
						if _, put, _ := sq.Traffic(); put != 0 {
							t.Errorf("%s: rank %d put %d bytes into tiles it does not own", name, dx.Comm.Rank(), put)
						}
						if dx.Comm.Rank() == 0 {
							if i := firstBitDiff(tileBits(sq), tileBits(mm)); i >= 0 {
								t.Errorf("%s: Square differs from MatMul at tile element %d", name, i)
							}
							if bad := paddingNonZero(sq); bad != 0 {
								t.Errorf("%s: %d padded entries are not +0", name, bad)
							}
						}
						if abft {
							if st, err := sq.AuditParity(); err != nil || st.Mismatches != 0 {
								t.Errorf("%s: parity after Square: %+v, %v", name, st, err)
							}
						}
					})
				}
			}
		}
	}
}

// TestSquareProducts pins the tile products per rank: on the density
// workload's shape (n = 256, 64-row tiles, 2 ranks) Square runs 5 per
// rank where MatMul runs one per owned tile, 8. On every shape each pair
// gets one product, on one of its two owners.
func TestSquareProducts(t *testing.T) {
	onWorld(t, 2, func(g *Grid, dx *ddi.Context) {
		m := New(g, dx, 256, 0)
		if got := m.OwnedTiles(); got != 8 {
			t.Errorf("rank %d owns %d tiles, want 8 (MatMul's products)", dx.Comm.Rank(), got)
		}
		if got := productsPerRank(m); fmt.Sprint(got) != "[5 5]" {
			t.Errorf("Square products per rank %v, want [5 5]", got)
		}
	})
	for _, ranks := range []int{1, 3, 4, 6} {
		for _, n := range []int{256, 97} {
			onWorld(t, ranks, func(g *Grid, dx *ddi.Context) {
				m := New(g, dx, n, 16)
				plan := m.squarePlan()
				for bi := 0; bi < m.NB; bi++ {
					for bj := 0; bj <= bi; bj++ {
						if r := plan[bi*m.NB+bj]; r != m.OwnerOf(bi, bj) && r != m.OwnerOf(bj, bi) {
							t.Errorf("ranks=%d n=%d: pair (%d,%d) planned on rank %d, which owns neither tile", ranks, n, bi, bj, r)
						}
					}
				}
				got := productsPerRank(m)
				total := 0
				for _, c := range got {
					total += c
				}
				if want := m.NB * (m.NB + 1) / 2; total != want {
					t.Errorf("ranks=%d n=%d: %d products, want one per pair, %d", ranks, n, total, want)
				}
			})
		}
	}
}

func productsPerRank(m *BlockMat) []int {
	plan := m.squarePlan()
	counts := make([]int, m.Dx.Comm.Size())
	for bi := 0; bi < m.NB; bi++ {
		for bj := 0; bj <= bi; bj++ {
			counts[plan[bi*m.NB+bj]]++
		}
	}
	return counts
}

// traceRef is the trace the old sweep took: the diagonal of the owned
// tiles, summed in owned-tile order, then globally.
func traceRef(m *BlockMat) float64 {
	buf := make([]float64, m.BS*m.BS)
	sum := 0.0
	m.forOwned(func(bi, bj int) {
		if bi != bj {
			return
		}
		m.GetTile(bi, bj, buf)
		for r := 0; r < m.live(bi); r++ {
			sum += buf[r*m.BS+r]
		}
	})
	v := []float64{sum}
	m.Dx.GSumF(v)
	m.Dx.Comm.Barrier()
	return v[0]
}

// purifyRef is Purify as it was before Square: X0 from F' as given, then
// per sweep MatMul, two traces and FrobSqDiff — the bit oracle for
// TestPurifyBitsUnchanged.
func purifyRef(dst, fp, xsq *BlockMat, nocc int, tol float64, maxSweeps int) (PurifyStats, error) {
	var st PurifyStats
	lo, hi := Gershgorin(fp)
	Copy(dst, fp)
	Scale(dst, -1/(hi-lo))
	AddScaledIdentity(dst, hi/(hi-lo))
	occ := float64(nocc)
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		st.Sweeps = sweep
		if dst.ABFT() {
			if _, err := dst.AuditParity(); err != nil {
				return st, err
			}
		}
		MatMul(xsq, dst, dst)
		t, ts := traceRef(dst), traceRef(xsq)
		st.IdemErr = math.Sqrt(FrobSqDiff(dst, xsq))
		st.TraceErr = math.Abs(t - occ)
		if st.IdemErr <= tol && st.TraceErr <= purifyTraceTol {
			st.Converged = true
			break
		}
		if math.Abs(ts-occ) <= math.Abs(2*t-ts-occ) {
			st.Branches += "S"
			Copy(dst, xsq)
		} else {
			st.Branches += "R"
			Axpby(dst, xsq, -1, 2)
		}
	}
	Scale(dst, 2)
	return st, nil
}

// TestPurifyBitsUnchanged: on the density workload's generator, Purify
// (copyLower, Square, the fused sweep sums) gives the old sweep's D',
// branch string, sweep count and idempotency error bit for bit.
func TestPurifyBitsUnchanged(t *testing.T) {
	const nocc = 128
	sizes := []int{256, 250}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		for seed := int64(1); seed <= 3; seed++ {
			fp := gappedSym(n, nocc, seed)
			for ranks := 1; ranks <= 4; ranks++ {
				for _, abft := range []bool{false, true} {
					name := fmt.Sprintf("n=%d/seed=%d/ranks=%d/abft=%v", n, seed, ranks, abft)
					onWorld(t, ranks, func(g *Grid, dx *ddi.Context) {
						mk := New
						if abft {
							mk = NewABFT
						}
						dfp, dst, xsq := mk(g, dx, n, 0), mk(g, dx, n, 0), mk(g, dx, n, 0)
						ref, rsq := mk(g, dx, n, 0), mk(g, dx, n, 0)
						if err := dfp.ScatterDense(fp); err != nil {
							t.Errorf("%s: scatter: %v", name, err)
							return
						}
						got, err := Purify(dst, dfp, xsq, nocc, 1e-12, 200)
						want, rerr := purifyRef(ref, dfp, rsq, nocc, 1e-12, 200)
						if err != nil || rerr != nil {
							t.Errorf("%s: purify %v, reference %v", name, err, rerr)
							return
						}
						if dx.Comm.Rank() != 0 {
							return
						}
						if got.Branches != want.Branches || got.Sweeps != want.Sweeps ||
							math.Float64bits(got.IdemErr) != math.Float64bits(want.IdemErr) {
							t.Errorf("%s: stats %+v, want %+v", name, got, want)
						}
						if i := firstBitDiff(tileBits(dst), tileBits(ref)); i >= 0 {
							t.Errorf("%s: D' differs from the old sweep's at tile element %d", name, i)
						}
					})
				}
			}
		}
	}
}

// TestPurifySymmetrizesInput: an F' whose upper triangle is one ulp above
// its lower one (as X·F·X products can leave it) purifies to an exactly
// symmetric D', bit-identical to the D' of the lower-mirrored F'.
func TestPurifySymmetrizesInput(t *testing.T) {
	const n, nocc = 50, 20
	sym := gappedSym(n, nocc, 11)
	skew := sym.Clone()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			skew.Set(i, j, math.Nextafter(sym.At(i, j), math.Inf(1)))
		}
	}
	for _, ranks := range []int{1, 2, 4} {
		onWorld(t, ranks, func(g *Grid, dx *ddi.Context) {
			var d [2]*linalg.Matrix
			for k, fp := range []*linalg.Matrix{skew, sym} {
				dfp, dst, xsq := New(g, dx, n, 8), New(g, dx, n, 8), New(g, dx, n, 8)
				if err := dfp.ScatterDense(fp); err != nil {
					t.Errorf("scatter: %v", err)
					return
				}
				if _, err := Purify(dst, dfp, xsq, nocc, 1e-12, 200); err != nil {
					t.Errorf("ranks=%d: purify: %v", ranks, err)
					return
				}
				var err error
				if d[k], err = dst.GatherVerified(); err != nil {
					t.Errorf("gather: %v", err)
					return
				}
			}
			if dx.Comm.Rank() != 0 {
				return
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if math.Float64bits(d[0].At(i, j)) != math.Float64bits(d[0].At(j, i)) {
						t.Fatalf("ranks=%d: D'[%d][%d] = %v but D'[%d][%d] = %v", ranks, i, j, d[0].At(i, j), j, i, d[0].At(j, i))
					}
					if math.Float64bits(d[0].At(i, j)) != math.Float64bits(d[1].At(i, j)) {
						t.Fatalf("ranks=%d: D'[%d][%d] = %v from the skewed F', %v from the mirrored one", ranks, i, j, d[0].At(i, j), d[1].At(i, j))
					}
				}
			}
		})
	}
}

// BenchmarkSquare times one Square of the density workload's shape:
// n = 256, 64-row tiles on 2 ranks.
func BenchmarkSquare(b *testing.B) {
	const n = 256
	x := gappedSym(n, n/2, 1)
	if err := mpi.Run(2, func(c *mpi.Comm) {
		g, dx := NewGrid(c.Rank(), c.Size()), ddi.New(c)
		dxm, sq := New(g, dx, n, 0), New(g, dx, n, 0)
		if err := dxm.ScatterDense(x); err != nil {
			b.Error(err)
			return
		}
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			Square(sq, dxm)
		}
	}); err != nil {
		b.Fatal(err)
	}
}

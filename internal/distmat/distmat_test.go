package distmat

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ddi"
	"repro/internal/linalg"
	"repro/internal/mpi"
)

func randSym(n int, seed int64) *linalg.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := linalg.NewSquare(n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func randDense(n int, seed int64) *linalg.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := linalg.NewSquare(n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// onWorld runs f on every rank of a world of the given size with a grid
// and DDI context prepared.
func onWorld(t *testing.T, size int, f func(g *Grid, dx *ddi.Context)) {
	t.Helper()
	if err := mpi.Run(size, func(c *mpi.Comm) {
		f(NewGrid(c.Rank(), c.Size()), ddi.New(c))
	}); err != nil {
		t.Fatalf("mpi.Run: %v", err)
	}
}

func TestFactor2D(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 2: {2, 1}, 4: {2, 2}, 6: {3, 2}, 7: {7, 1}, 12: {4, 3}, 16: {4, 4}}
	for p, want := range cases {
		pr, pc := Factor2D(p)
		if pr != want[0] || pc != want[1] {
			t.Errorf("Factor2D(%d) = %dx%d, want %dx%d", p, pr, pc, want[0], want[1])
		}
		if pr*pc != p {
			t.Errorf("Factor2D(%d): %d*%d != %d", p, pr, pc, p)
		}
	}
}

func TestOwnershipPartition(t *testing.T) {
	// Every tile has exactly one owner; ownership covers all ranks for a
	// big enough block dimension.
	onWorld(t, 4, func(g *Grid, dx *ddi.Context) {
		m := New(g, dx, 17, 3)
		if dx.Comm.Rank() != 0 {
			return
		}
		seen := make([]int, dx.Comm.Size())
		for bi := 0; bi < m.NB; bi++ {
			for bj := 0; bj < m.NB; bj++ {
				o := m.OwnerOf(bi, bj)
				if o < 0 || o >= dx.Comm.Size() {
					t.Errorf("tile (%d,%d) owner %d out of range", bi, bj, o)
				}
				seen[o]++
			}
		}
		total := 0
		for r, c := range seen {
			if c == 0 {
				t.Errorf("rank %d owns no tiles", r)
			}
			total += c
		}
		if total != m.NB*m.NB {
			t.Errorf("ownership covers %d tiles, want %d", total, m.NB*m.NB)
		}
	})
}

func TestScatterGatherRoundTrip(t *testing.T) {
	for _, n := range []int{1, 5, 16, 23} {
		d := randSym(n, int64(n))
		onWorld(t, 4, func(g *Grid, dx *ddi.Context) {
			m := New(g, dx, n, 0)
			if err := m.ScatterDense(d); err != nil {
				t.Errorf("scatter n=%d: %v", n, err)
				return
			}
			got, err := m.GatherVerified()
			if err != nil {
				t.Errorf("gather n=%d: %v", n, err)
				return
			}
			if diff := got.MaxAbsDiff(d); diff != 0 {
				t.Errorf("n=%d round trip differs by %g", n, diff)
			}
		})
	}
}

func TestScatterRejectsDivergentReplicas(t *testing.T) {
	n := 6
	onWorld(t, 3, func(g *Grid, dx *ddi.Context) {
		d := randSym(n, 7)
		if dx.Comm.Rank() == 1 {
			d.Set(2, 3, d.At(2, 3)+1e-9) // one rank drifted
		}
		m := New(g, dx, n, 2)
		if err := m.ScatterDense(d); err == nil {
			t.Errorf("rank %d: scatter accepted divergent replicas", dx.Comm.Rank())
		}
	})
}

func TestAtAndZero(t *testing.T) {
	n := 9
	d := randSym(n, 3)
	onWorld(t, 4, func(g *Grid, dx *ddi.Context) {
		m := New(g, dx, n, 2)
		if err := m.ScatterDense(d); err != nil {
			t.Fatalf("scatter: %v", err)
		}
		// Errorf, not Fatalf: a per-rank Goexit before the collective Zero
		// would deadlock the surviving ranks in its barrier.
	scan:
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got := m.At(i, j); got != d.At(i, j) {
					t.Errorf("At(%d,%d) = %g, want %g", i, j, got, d.At(i, j))
					break scan
				}
			}
		}
		m.Zero()
		if got := FrobeniusNorm(m); got != 0 {
			t.Fatalf("after Zero, ||m|| = %g", got)
		}
	})
}

func TestMatMulMatchesDense(t *testing.T) {
	for _, tc := range []struct{ n, bs, ranks int }{
		{7, 2, 4}, {12, 3, 6}, {16, 4, 4}, {10, 0, 2},
	} {
		a := randDense(tc.n, 11)
		b := randDense(tc.n, 13)
		want := linalg.Mul(a, b)
		onWorld(t, tc.ranks, func(g *Grid, dx *ddi.Context) {
			da := New(g, dx, tc.n, tc.bs)
			db := New(g, dx, tc.n, tc.bs)
			dc := New(g, dx, tc.n, tc.bs)
			if err := da.ScatterDense(a); err != nil {
				t.Fatalf("scatter a: %v", err)
			}
			if err := db.ScatterDense(b); err != nil {
				t.Fatalf("scatter b: %v", err)
			}
			MatMul(dc, da, db)
			got, err := dc.GatherVerified()
			if err != nil {
				t.Fatalf("gather: %v", err)
			}
			if diff := got.MaxAbsDiff(want); diff > 1e-12 {
				t.Errorf("n=%d bs=%d ranks=%d: MatMul differs from dense by %g",
					tc.n, tc.bs, tc.ranks, diff)
			}
		})
	}
}

// TestMatMulPaddedTiles: with N not a multiple of the tile edge, the
// tile products run over live extents only, yet the gathered product is
// the dense one bit for bit (each element still sums over k in order) and
// the padding of c stays +0.
func TestMatMulPaddedTiles(t *testing.T) {
	const n = 250
	a := randDense(n, 21)
	b := randDense(n, 23)
	want := linalg.Mul(a, b)
	for _, tc := range []struct{ bs, ranks int }{{0, 2}, {0, 4}, {64, 2}, {64, 4}} {
		onWorld(t, tc.ranks, func(g *Grid, dx *ddi.Context) {
			da, db, dc := New(g, dx, n, tc.bs), New(g, dx, n, tc.bs), New(g, dx, n, tc.bs)
			if err := da.ScatterDense(a); err != nil {
				t.Fatalf("scatter a: %v", err)
			}
			if err := db.ScatterDense(b); err != nil {
				t.Fatalf("scatter b: %v", err)
			}
			MatMul(dc, da, db)
			got, err := dc.GatherVerified()
			if err != nil {
				t.Fatalf("gather: %v", err)
			}
			if dx.Comm.Rank() != 0 {
				return
			}
			if n%dc.BS == 0 {
				t.Errorf("bs=%d: tile edge %d divides %d, no padded tiles", tc.bs, dc.BS, n)
			}
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("bs=%d ranks=%d: c[%d] = %v, linalg.MulInto %v", tc.bs, tc.ranks, i, got.Data[i], want.Data[i])
				}
			}
			tile := make([]float64, dc.BS*dc.BS)
			last := dc.NB - 1
			dc.GetTile(last, last, tile)
			for i, v := range tile {
				if r, c := i/dc.BS, i%dc.BS; (last*dc.BS+r >= n || last*dc.BS+c >= n) && math.Float64bits(v) != 0 {
					t.Fatalf("bs=%d ranks=%d: padded entry (%d,%d) of the last tile is %v, want +0", tc.bs, tc.ranks, r, c, v)
				}
			}
		})
	}
}

func TestReductionsMatchDense(t *testing.T) {
	n := 11
	a := randSym(n, 17)
	b := randSym(n, 19)
	onWorld(t, 4, func(g *Grid, dx *ddi.Context) {
		da := New(g, dx, n, 3)
		db := New(g, dx, n, 3)
		if err := da.ScatterDense(a); err != nil {
			t.Fatalf("scatter: %v", err)
		}
		if err := db.ScatterDense(b); err != nil {
			t.Fatalf("scatter: %v", err)
		}
		if got, want := Trace(da), a.Trace(); math.Abs(got-want) > 1e-12 {
			t.Errorf("Trace = %g, want %g", got, want)
		}
		if got, want := Dot(da, db), linalg.Dot(a, b); math.Abs(got-want) > 1e-10 {
			t.Errorf("Dot = %g, want %g", got, want)
		}
		if got, want := FrobeniusNorm(da), a.FrobeniusNorm(); math.Abs(got-want) > 1e-12 {
			t.Errorf("FrobeniusNorm = %g, want %g", got, want)
		}
		if got, want := RMSDiff(da, db), a.RMSDiff(b); math.Abs(got-want) > 1e-12 {
			t.Errorf("RMSDiff = %g, want %g", got, want)
		}

		// Gershgorin must bracket the true spectrum.
		lo, hi := Gershgorin(da)
		eigs, _ := linalg.EigenSym(a.Clone())
		for _, e := range eigs {
			if e < lo-1e-12 || e > hi+1e-12 {
				t.Errorf("eigenvalue %g outside Gershgorin [%g, %g]", e, lo, hi)
			}
		}
	})
}

func TestElementwiseOps(t *testing.T) {
	n := 8
	a := randDense(n, 23)
	b := randDense(n, 29)
	onWorld(t, 4, func(g *Grid, dx *ddi.Context) {
		da := New(g, dx, n, 3)
		db := New(g, dx, n, 3)
		dc := New(g, dx, n, 3)
		if err := da.ScatterDense(a); err != nil {
			t.Fatalf("scatter: %v", err)
		}
		if err := db.ScatterDense(b); err != nil {
			t.Fatalf("scatter: %v", err)
		}

		// y = 2x - 3y
		Copy(dc, db)
		Axpby(dc, da, 2, -3)
		want := a.Clone()
		want.Scale(2)
		want.AxpyFrom(-3, b)
		got, err := dc.GatherVerified()
		if err != nil {
			t.Fatalf("gather: %v", err)
		}
		if diff := got.MaxAbsDiff(want); diff > 1e-13 {
			t.Errorf("Axpby differs by %g", diff)
		}

		// AddScaledIdentity
		Copy(dc, da)
		AddScaledIdentity(dc, 0.5)
		want = a.Clone()
		for i := 0; i < n; i++ {
			want.Add(i, i, 0.5)
		}
		got, err = dc.GatherVerified()
		if err != nil {
			t.Fatalf("gather: %v", err)
		}
		if diff := got.MaxAbsDiff(want); diff > 1e-13 {
			t.Errorf("AddScaledIdentity differs by %g", diff)
		}

		// AntiSymmetrize: e = a - a^T
		AntiSymmetrize(dc, da)
		want = a.Clone()
		want.AxpyFrom(-1, a.Transpose())
		got, err = dc.GatherVerified()
		if err != nil {
			t.Fatalf("gather: %v", err)
		}
		if diff := got.MaxAbsDiff(want); diff > 1e-13 {
			t.Errorf("AntiSymmetrize differs by %g", diff)
		}

		// LinearCombine with aliasing: dc = 0.25*dc + 0.75*da
		lcWant := got.Clone()
		lcWant.Scale(0.25)
		lcWant.AxpyFrom(0.75, a)
		LinearCombine(dc, []float64{0.25, 0.75}, []*BlockMat{dc, da})
		got, err = dc.GatherVerified()
		if err != nil {
			t.Fatalf("gather: %v", err)
		}
		if diff := got.MaxAbsDiff(lcWant); diff > 1e-13 {
			t.Errorf("aliased LinearCombine differs by %g", diff)
		}
	})
}

func TestUnfoldLower(t *testing.T) {
	n := 10
	onWorld(t, 4, func(g *Grid, dx *ddi.Context) {
		m := New(g, dx, n, 3)
		// Accumulate a known lower triangle via AccTile-backed TileAccum.
		acc := NewTileAccum(m, 0)
		me := dx.Comm.Rank()
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				// Every rank contributes a share of each element.
				acc.AddLower(i, j, float64(i*n+j)/float64(dx.Comm.Size()))
				_ = me
			}
		}
		acc.Flush()
		UnfoldLower(m)
		got, err := m.GatherVerified()
		if err != nil {
			t.Fatalf("gather: %v", err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				want := float64(i*n + j)
				if math.Abs(got.At(i, j)-want) > 1e-12 || math.Abs(got.At(j, i)-want) > 1e-12 {
					t.Fatalf("element (%d,%d): got %g / %g, want %g", i, j, got.At(i, j), got.At(j, i), want)
				}
			}
		}
	})
}

func TestTileReaderBoundedAndCorrect(t *testing.T) {
	n := 12
	d := randSym(n, 31)
	onWorld(t, 4, func(g *Grid, dx *ddi.Context) {
		m := New(g, dx, n, 2) // 6x6 = 36 tiles
		if err := m.ScatterDense(d); err != nil {
			t.Fatalf("scatter: %v", err)
		}
		r := NewTileReader(m, 5)
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if got := r.At(i, j); got != d.At(i, j) {
						t.Fatalf("reader At(%d,%d) = %g, want %g", i, j, got, d.At(i, j))
					}
				}
			}
		}
		if r.PeakBytes() > 5*2*2*8 {
			t.Errorf("reader exceeded its budget: peak %d bytes", r.PeakBytes())
		}
		if r.Evictions == 0 {
			t.Errorf("capacity 5 over 36 tiles should have evicted")
		}
		r.Reset()
		if got := r.At(0, 0); got != d.At(0, 0) {
			t.Errorf("after Reset, At = %g, want %g", got, d.At(0, 0))
		}
	})
}

func TestTileAccumSpills(t *testing.T) {
	n := 12
	onWorld(t, 2, func(g *Grid, dx *ddi.Context) {
		m := New(g, dx, n, 2)
		a := NewTileAccum(m, 4)
		if dx.Comm.Rank() == 0 {
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					a.AddLower(j, i, 1) // non-canonical order on purpose
				}
			}
		}
		a.Flush()
		dx.Comm.Barrier()
		if dx.Comm.Rank() == 0 && a.Spills == 0 {
			t.Errorf("capacity 4 over %d dirty tiles should have spilled", m.NB*(m.NB+1)/2)
		}
		got, err := m.GatherVerified()
		if err != nil {
			t.Fatalf("gather: %v", err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if got.At(i, j) != 1 {
					t.Fatalf("element (%d,%d) = %g, want 1", i, j, got.At(i, j))
				}
			}
		}
	})
}

func TestPerRankTileBytes(t *testing.T) {
	// 66 basis functions on 16 ranks, bs 9: 8x8 blocks, 4 tiles/rank.
	if got, want := PerRankTileBytes(66, 16, 9), int64(4*9*9*8); got != want {
		t.Errorf("PerRankTileBytes(66,16,9) = %d, want %d", got, want)
	}
	// Distributed storage must undercut one replicated square matrix for
	// any nontrivial rank count.
	for _, ranks := range []int{4, 16, 64} {
		n := 660
		repl := int64(n) * int64(n) * 8
		if got := PerRankTileBytes(n, ranks, 0); got*int64(ranks) > 2*repl || got >= repl {
			t.Errorf("PerRankTileBytes(%d,%d) = %d: not a distribution win vs %d replicated",
				n, ranks, got, repl)
		}
	}
}

package distmat

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ddi"
	"repro/internal/linalg"
	"repro/internal/mpi"
)

// gappedSym builds a symmetric n x n matrix with a clean spectral gap
// after the first nocc eigenvalues: diag(-1 ... -1, +1 ... +1) plus a
// small symmetric perturbation well under half the gap, so the
// occupied/virtual split is unambiguous for both the eigensolver and
// purification.
func gappedSym(n, nocc int, seed int64) *linalg.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := linalg.NewSquare(n)
	for i := 0; i < n; i++ {
		if i < nocc {
			m.Set(i, i, -1)
		} else {
			m.Set(i, i, 1)
		}
		for j := 0; j < i; j++ {
			v := 0.05 * rng.NormFloat64() / float64(n)
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// densityFromEig is the eigensolver's density build for an orthonormal
// Fock: D' = 2 C_occ C_occ^T.
// identity returns the n x n identity matrix.
func identity(n int) *linalg.Matrix {
	m := linalg.NewSquare(n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

func densityFromEig(fp *linalg.Matrix, nocc int) *linalg.Matrix {
	_, c := linalg.EigenSym(fp.Clone())
	n := fp.Rows
	d := linalg.NewSquare(n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			sum := 0.0
			for o := 0; o < nocc; o++ {
				sum += c.At(a, o) * c.At(b, o)
			}
			d.Set(a, b, 2*sum)
		}
	}
	return d
}

func TestSP2DenseMatchesEigensolve(t *testing.T) {
	for _, tc := range []struct{ n, nocc int }{{6, 2}, {12, 5}, {20, 7}} {
		fp := gappedSym(tc.n, tc.nocc, int64(tc.n))
		want := densityFromEig(fp, tc.nocc)
		got, st, err := SP2Dense(fp, tc.nocc, 1e-13, 100)
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if !st.Converged || st.Sweeps == 0 {
			t.Fatalf("n=%d: not converged (%+v)", tc.n, st)
		}
		if diff := got.MaxAbsDiff(want); diff > 1e-8 {
			t.Errorf("n=%d: purified density differs from eigensolve by %g", tc.n, diff)
		}
		if tr := got.Trace(); math.Abs(tr-2*float64(tc.nocc)) > 1e-8 {
			t.Errorf("n=%d: tr D' = %g, want %d", tc.n, tr, 2*tc.nocc)
		}
	}
}

func TestPurifyDistributedMatchesDense(t *testing.T) {
	n, nocc := 14, 5
	fp := gappedSym(n, nocc, 42)
	want, _, err := SP2Dense(fp, nocc, 1e-13, 100)
	if err != nil {
		t.Fatalf("dense reference: %v", err)
	}
	for _, ranks := range []int{1, 4, 6} {
		onWorld(t, ranks, func(g *Grid, dx *ddi.Context) {
			dfp := New(g, dx, n, 4)
			dst := New(g, dx, n, 4)
			xsq := New(g, dx, n, 4)
			if err := dfp.ScatterDense(fp); err != nil {
				t.Fatalf("scatter: %v", err)
			}
			st, err := Purify(dst, dfp, xsq, nocc, 1e-13, 100)
			if err != nil {
				t.Fatalf("ranks=%d: %v", ranks, err)
			}
			if !st.Converged {
				t.Fatalf("ranks=%d: not converged (%+v)", ranks, st)
			}
			got, err := dst.GatherVerified()
			if err != nil {
				t.Fatalf("gather: %v", err)
			}
			// The distributed path runs the identical algorithm with
			// deterministic reductions; only multiply-order roundoff
			// separates it from the dense oracle.
			if diff := got.MaxAbsDiff(want); diff > 1e-10 {
				t.Errorf("ranks=%d: distributed purification differs from dense by %g", ranks, diff)
			}
		})
	}
}

func TestPurifyInvariantsAndFailure(t *testing.T) {
	// A gapless spectrum with nocc cutting through a degenerate shell is
	// SP2's pathological case; with a tiny sweep budget it must report
	// non-convergence rather than hand back a bogus density.
	n := 8
	fp := identity(n) // every eigenvalue 1, "occupy" half
	onWorld(t, 2, func(g *Grid, dx *ddi.Context) {
		dfp := New(g, dx, n, 3)
		dst := New(g, dx, n, 3)
		xsq := New(g, dx, n, 3)
		if err := dfp.ScatterDense(fp); err != nil {
			t.Fatalf("scatter: %v", err)
		}
		if _, err := Purify(dst, dfp, xsq, n/2, 1e-13, 5); err == nil {
			t.Errorf("purification of a gapless spectrum with 5 sweeps should fail")
		}
	})
}

func TestPurifySweepCounterTelemetry(t *testing.T) {
	n, nocc := 10, 3
	fp := gappedSym(n, nocc, 9)
	onWorld(t, 2, func(g *Grid, dx *ddi.Context) {
		dfp := New(g, dx, n, 3)
		dst := New(g, dx, n, 3)
		xsq := New(g, dx, n, 3)
		if err := dfp.ScatterDense(fp); err != nil {
			t.Fatalf("scatter: %v", err)
		}
		if _, err := Purify(dst, dfp, xsq, nocc, 1e-13, 100); err != nil {
			t.Fatalf("purify: %v", err)
		}
		get, _, _ := dst.Traffic()
		if dx.Comm.Size() > 1 && get == 0 {
			t.Errorf("multi-rank purification moved no off-rank bytes through the iterate")
		}
	})
}

// TestPurifyNaNAgainstZero: a NaN in F' at (k,j) whose mirror (j,k) is
// zero meets that zero as an a-element in X^2[j][j]. The old tile loop
// skipped zero a-elements and left that entry finite; the product now
// propagates the NaN there, and Purify stops on its non-finite trace.
func TestPurifyNaNAgainstZero(t *testing.T) {
	const n, nocc, k, j = 12, 4, 7, 2
	fp := gappedSym(n, nocc, 5)
	fp.Set(k, j, math.NaN())
	fp.Set(j, k, 0)
	onWorld(t, 2, func(g *Grid, dx *ddi.Context) {
		dfp, dst, xsq := New(g, dx, n, 4), New(g, dx, n, 4), New(g, dx, n, 4)
		if err := dfp.ScatterDense(fp); err != nil {
			t.Fatalf("scatter: %v", err)
		}
		_, err := Purify(dst, dfp, xsq, nocc, 1e-13, 100)
		if err == nil || !strings.Contains(err.Error(), "non-finite trace") {
			t.Errorf("Purify with a NaN in F' returned %v, want the non-finite-trace error", err)
		}
		x2, gerr := xsq.GatherVerified()
		if gerr != nil {
			t.Fatalf("gather: %v", gerr)
		}
		if v := x2.At(j, j); dx.Comm.Rank() == 0 && !math.IsNaN(v) {
			t.Errorf("X^2[%d][%d] = %v: the NaN at (%d,%d) did not reach it through the zero at (%d,%d)", j, j, v, k, j, j, k)
		}
	})
}

// BenchmarkPurify times one SP2 density step of the density workload's
// shape: n = 256, nocc = 128, 64-row tiles on 2 ranks.
func BenchmarkPurify(b *testing.B) {
	const n, nocc = 256, 128
	fp := gappedSym(n, nocc, 1)
	if err := mpi.Run(2, func(c *mpi.Comm) {
		g, dx := NewGrid(c.Rank(), c.Size()), ddi.New(c)
		dfp, dst, xsq := New(g, dx, n, 0), New(g, dx, n, 0), New(g, dx, n, 0)
		if err := dfp.ScatterDense(fp); err != nil {
			b.Error(err)
			return
		}
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if _, err := Purify(dst, dfp, xsq, nocc, 1e-12, 200); err != nil {
				b.Error(err)
				return
			}
		}
	}); err != nil {
		b.Fatal(err)
	}
}

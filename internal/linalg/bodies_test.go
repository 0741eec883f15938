package linalg_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ddi"
	"repro/internal/distmat"
	"repro/internal/linalg"
	"repro/internal/mpi"
)

// gappedFock is the density workload's generator: an orthonormal Fock
// with occupied levels near -1, virtuals near +1 and a small symmetric
// perturbation drawn from the seed.
func gappedFock(n, nocc int, seed int64) *linalg.Matrix {
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

// purify2 runs one SP2 density step on 64-row tiles in a 2-rank world and
// returns the gathered D' with rank 0's stats.
func purify2(t *testing.T, fp *linalg.Matrix, nocc int) (*linalg.Matrix, distmat.PurifyStats) {
	t.Helper()
	var (
		d   *linalg.Matrix
		st  distmat.PurifyStats
		err error
	)
	if rerr := mpi.Run(2, func(c *mpi.Comm) {
		g, dx := distmat.NewGrid(c.Rank(), c.Size()), ddi.New(c)
		f, dst, xsq := distmat.New(g, dx, fp.Rows, 0), distmat.New(g, dx, fp.Rows, 0), distmat.New(g, dx, fp.Rows, 0)
		if serr := f.ScatterDense(fp); serr != nil {
			panic(serr)
		}
		s, perr := distmat.Purify(dst, f, xsq, nocc, 1e-12, 200)
		got, gerr := dst.GatherVerified()
		if c.Rank() == 0 {
			d, st, err = got, s, perr
			if err == nil {
				err = gerr
			}
		}
	}); rerr != nil {
		t.Fatalf("mpi.Run: %v", rerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return d, st
}

// TestPurifyBodiesBitIdentical: the density step on the density
// workload's generator gives the same D' bits, branch string and sweeps
// on every MulAdd body as on the Go body (the old scalar loop's order).
// Each subtest names the body it ran; a body the host's CPUID probe
// reports runs, one it does not skips.
func TestPurifyBodiesBitIdentical(t *testing.T) {
	type step struct {
		d  *linalg.Matrix
		st distmat.PurifyStats
	}
	want := map[int64]step{}
	for _, name := range linalg.BodyNames {
		restore, ok := linalg.UseBody(name)
		t.Run(name, func(t *testing.T) {
			if !ok {
				t.Skipf("the CPUID probe reports no %s body on this host", name)
			}
			for _, seed := range []int64{1, 2} {
				var got step
				got.d, got.st = purify2(t, gappedFock(256, 128, seed), 128)
				ref, seen := want[seed]
				if !seen { // the Go body runs first and is the reference
					want[seed] = got
					continue
				}
				if got.st.Branches != ref.st.Branches || got.st.Sweeps != ref.st.Sweeps {
					t.Errorf("seed %d: %s took %q in %d sweeps, Go body %q in %d", seed, name, got.st.Branches, got.st.Sweeps, ref.st.Branches, ref.st.Sweeps)
				}
				for i := range got.d.Data {
					if math.Float64bits(got.d.Data[i]) != math.Float64bits(ref.d.Data[i]) {
						t.Fatalf("seed %d: D'[%d] = %v on %s, %v on the Go body", seed, i, got.d.Data[i], name, ref.d.Data[i])
					}
				}
			}
		})
		restore()
	}
}

package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// scalarMulAdd is the product loop MulInto and distmat's tile product ran
// before MulAdd, zero-skip included: the bit-exact oracle of both bodies.
func scalarMulAdd(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int) {
	for i := 0; i < m; i++ {
		crow := c[i*ldc : i*ldc+n]
		for p := 0; p < k; p++ {
			v := a[i*lda+p]
			if v == 0 {
				continue
			}
			brow := b[p*ldb : p*ldb+n]
			for j := range crow {
				crow[j] += v * brow[j]
			}
		}
	}
}

// eachBody runs f once per MulAdd body this CPU can run, with that body
// selected.
func eachBody(t *testing.T, f func(t *testing.T)) {
	restore := UseGoBody()
	t.Run("go", f)
	restore()
	if HasAVXFMA() { // package init selected the assembly body
		t.Run("avx", f)
	}
}

// randSlice returns n normal floats with about a fifth of them zero.
func randSlice(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		if rng.Intn(5) > 0 {
			x[i] = rng.NormFloat64()
		}
	}
	return x
}

func TestMulAddMatchesScalar(t *testing.T) {
	type shape struct{ m, n, k, pad int }
	shapes := []shape{{1, 1, 1, 0}, {3, 5, 7, 0}, {13, 29, 17, 0}, {36, 36, 36, 0},
		{38, 38, 38, 0}, {64, 64, 64, 0}, {256, 256, 256, 0}, {8, 16, 0, 0},
		// a tile inside a wider matrix: leading dimensions past the block
		{12, 24, 20, 9}, {13, 29, 17, 11}, {64, 64, 64, 64}}
	eachBody(t, func(t *testing.T) {
		for _, s := range shapes {
			rng := rand.New(rand.NewSource(int64(s.m*1000 + s.n*10 + s.k)))
			lda, ldb, ldc := s.k+s.pad, s.n+s.pad, s.n+2*s.pad
			a := randSlice(rng, s.m*lda)
			b := randSlice(rng, max(s.k, 1)*ldb)
			c := randSlice(rng, s.m*ldc)
			// Only a -0 in c could tell the skip from the product (0*b
			// adds +0); randSlice's zeros are +0, as are MatMul's tiles.
			want := append([]float64(nil), c...)
			scalarMulAdd(want, ldc, a, lda, b, ldb, s.m, s.n, s.k)
			MulAdd(c, ldc, a, lda, b, ldb, s.m, s.n, s.k)
			for i := range c {
				if math.Float64bits(c[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%dx%dx%d (pad %d): c[%d] = %v, scalar loop %v", s.m, s.n, s.k, s.pad, i, c[i], want[i])
				}
			}
		}
	})
}

// TestMulAddPropagatesNaN: a NaN in b meets a zero in a as 0*NaN = NaN;
// the old loop's zero-skip dropped that term and hid the NaN.
func TestMulAddPropagatesNaN(t *testing.T) {
	eachBody(t, func(t *testing.T) {
		const m, n, k = 8, 16, 8
		a := make([]float64, m*k) // all zero
		b := make([]float64, k*n)
		b[3*n+5] = math.NaN()
		c := make([]float64, m*n)
		MulAdd(c, n, a, k, b, n, m, n, k)
		for i := 0; i < m; i++ {
			if !math.IsNaN(c[i*n+5]) {
				t.Fatalf("c[%d][5] = %v, want NaN", i, c[i*n+5])
			}
		}
	})
}

func TestMulAddRejectsShortOperands(t *testing.T) {
	a := make([]float64, 12)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"short c", func() { MulAdd(make([]float64, 11), 4, a, 3, a, 4, 3, 4, 3) }},
		{"short b", func() { MulAdd(make([]float64, 12), 4, a, 4, a, 4, 3, 4, 4) }},
		{"narrow lda", func() { MulAdd(make([]float64, 12), 4, a, 2, a, 4, 3, 4, 3) }},
		{"negative k", func() { MulAdd(a, 4, a, 4, a, 4, 3, 4, -1) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: MulAdd did not panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
}

func TestMulIntoRejectsAliasing(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	view := &Matrix{Rows: 2, Cols: 2, Data: a.Data}
	for name, f := range map[string]func(){
		"c is a":            func() { MulInto(a, a, b) },
		"c is b":            func() { MulInto(b, a, b) },
		"c shares a's data": func() { MulInto(view, a, b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: MulInto did not panic", name)
				}
			}()
			f()
		}()
	}
	if want := FromRows([][]float64{{1, 2}, {3, 4}}); a.MaxAbsDiff(want) != 0 {
		t.Errorf("a rejected MulInto changed its input: %v", a)
	}
}

// BenchmarkMulAdd times the scalar loop against the selected kernel on a
// distmat tile (64) and the dense SCF's largest product (256).
func BenchmarkMulAdd(b *testing.B) {
	for _, body := range []struct {
		name string
		f    func(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int)
	}{{"scalar", scalarMulAdd}, {"kernel", MulAdd}} {
		for _, n := range []int{64, 256} {
			b.Run(fmt.Sprintf("%s/n=%d", body.name, n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				x, y := randSlice(rng, n*n), randSlice(rng, n*n)
				c := make([]float64, n*n)
				b.SetBytes(int64(2 * n * n * n)) // flops, read as MB/s = MF/s
				for b.Loop() {
					body.f(c, n, x, n, y, n, n, n, n)
				}
			})
		}
	}
}

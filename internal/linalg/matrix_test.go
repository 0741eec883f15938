package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("bad shape: %+v", m)
	}
	m.Set(1, 2, 4.5)
	if m.At(1, 2) != 4.5 {
		t.Fatalf("At after Set = %v", m.At(1, 2))
	}
	m.Add(1, 2, 0.5)
	if m.At(1, 2) != 5.0 {
		t.Fatalf("Add = %v", m.At(1, 2))
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dims")
		}
	}()
	New(-1, 2)
}

func TestFromRowsAndClone(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
	if c.At(0, 0) != 99 || c.At(1, 1) != 4 {
		t.Fatal("Clone values wrong")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := Mul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if c.MaxAbsDiff(want) > 1e-14 {
		t.Fatalf("Mul = %v", c)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMatrix(rng, 7, 7)
	if Mul(a, identity(7)).MaxAbsDiff(a) > 1e-13 {
		t.Fatal("a*I != a")
	}
	if Mul(identity(7), a).MaxAbsDiff(a) > 1e-13 {
		t.Fatal("I*a != a")
	}
}

func TestMulRectangular(t *testing.T) {
	a := FromRows([][]float64{{1, 0, 2}, {0, 3, 0}}) // 2x3
	b := FromRows([][]float64{{1}, {2}, {3}})        // 3x1
	c := Mul(a, b)
	if c.Rows != 2 || c.Cols != 1 || c.At(0, 0) != 7 || c.At(1, 0) != 6 {
		t.Fatalf("rect mul = %v", c)
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	y := MulVec(a, []float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMatrix(rng, 4, 6)
	if a.Transpose().Transpose().MaxAbsDiff(a) != 0 {
		t.Fatal("(a^T)^T != a")
	}
}

func TestTraceAndDot(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	if a.Trace() != 5 {
		t.Fatalf("Trace = %v", a.Trace())
	}
	if Dot(a, a) != 1+4+9+16 {
		t.Fatalf("Dot = %v", Dot(a, a))
	}
}

func TestSymmetrize(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {4, 3}})
	a.Symmetrize()
	if !a.IsSymmetric(0) || a.At(0, 1) != 3 {
		t.Fatalf("Symmetrize = %v", a)
	}
}

func TestRMSDiffAndFrobenius(t *testing.T) {
	a := FromRows([][]float64{{3, 0}, {0, 4}})
	z := New(2, 2)
	if !almostEq(a.FrobeniusNorm(), 5, 1e-15) {
		t.Fatalf("frob = %v", a.FrobeniusNorm())
	}
	if !almostEq(a.RMSDiff(z), 2.5, 1e-15) {
		t.Fatalf("rms = %v", a.RMSDiff(z))
	}
}

func TestTripleProduct(t *testing.T) {
	// X^T S X with X = S^{-1/2} should be I; checked in eig tests, here a
	// small hand example: a=I => returns b.
	b := FromRows([][]float64{{2, 1}, {1, 2}})
	got := TripleProduct(identity(2), b)
	if got.MaxAbsDiff(b) != 0 {
		t.Fatal("TripleProduct with identity changed b")
	}
}

// identity returns the n x n identity matrix.
func identity(n int) *Matrix {
	m := NewSquare(n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

func randMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randSym(rng *rand.Rand, n int) *Matrix {
	m := randMatrix(rng, n, n)
	m.Symmetrize()
	return m
}

func TestEigenSymKnown2x2(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs := EigenSym(a)
	if !almostEq(vals[0], 1, 1e-12) || !almostEq(vals[1], 3, 1e-12) {
		t.Fatalf("eigenvalues = %v", vals)
	}
	// residual check
	checkEigenResidual(t, a, vals, vecs, 1e-12)
}

func TestEigenSymDiagonal(t *testing.T) {
	a := FromRows([][]float64{{5, 0, 0}, {0, -2, 0}, {0, 0, 1}})
	vals, vecs := EigenSym(a)
	want := []float64{-2, 1, 5}
	for i := range want {
		if !almostEq(vals[i], want[i], 1e-13) {
			t.Fatalf("vals = %v", vals)
		}
	}
	checkEigenResidual(t, a, vals, vecs, 1e-12)
}

func TestEigenSymEmptyAndOne(t *testing.T) {
	vals, vecs := EigenSym(New(0, 0))
	if len(vals) != 0 || vecs.Rows != 0 {
		t.Fatal("empty eig failed")
	}
	vals, _ = EigenSym(FromRows([][]float64{{7}}))
	if !almostEq(vals[0], 7, 0) {
		t.Fatalf("1x1 eig = %v", vals)
	}
}

func checkEigenResidual(t *testing.T, a *Matrix, vals []float64, vecs *Matrix, tol float64) {
	t.Helper()
	n := a.Rows
	// orthonormality
	vtv := Mul(vecs.Transpose(), vecs)
	if vtv.MaxAbsDiff(identity(n)) > tol*10 {
		t.Fatalf("eigenvectors not orthonormal, err=%v", vtv.MaxAbsDiff(identity(n)))
	}
	// A v = lambda v
	av := Mul(a, vecs)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if math.Abs(av.At(i, j)-vals[j]*vecs.At(i, j)) > tol*100 {
				t.Fatalf("residual too large at (%d,%d)", i, j)
			}
		}
	}
	// ascending order
	for j := 1; j < n; j++ {
		if vals[j] < vals[j-1] {
			t.Fatalf("eigenvalues not sorted: %v", vals)
		}
	}
}

func TestEigenSymRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{2, 3, 5, 8, 17, 33} {
		a := randSym(rng, n)
		vals, vecs := EigenSym(a)
		checkEigenResidual(t, a, vals, vecs, 1e-10)
		// trace preservation
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		if !almostEq(sum, a.Trace(), 1e-9*float64(n)) {
			t.Fatalf("n=%d trace mismatch: %v vs %v", n, sum, a.Trace())
		}
	}
}

func TestEigenSymQuickTraceInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(rng.Int31n(10))
		a := randSym(rng, n)
		vals, _ := EigenSym(a)
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		return almostEq(sum, a.Trace(), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLowdinOrthogonalizer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Build an SPD overlap-like matrix S = B^T B + I.
	b := randMatrix(rng, 6, 6)
	s := Mul(b.Transpose(), b)
	for i := 0; i < 6; i++ {
		s.Add(i, i, 1)
	}
	x, err := LowdinOrthogonalizer(s, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	// X^T S X = I
	got := TripleProduct(x, s)
	if got.MaxAbsDiff(identity(6)) > 1e-10 {
		t.Fatalf("X^T S X != I, err=%v", got.MaxAbsDiff(identity(6)))
	}
	// X symmetric
	if !x.IsSymmetric(1e-12) {
		t.Fatal("Lowdin X not symmetric")
	}
}

func TestLowdinRejectsLinearDependence(t *testing.T) {
	s := FromRows([][]float64{{1, 1}, {1, 1}}) // singular
	if _, err := LowdinOrthogonalizer(s, 1e-8); err == nil {
		t.Fatal("expected linear-dependence error")
	}
}

func TestSolveLinearKnown(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	x, err := SolveLinear(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 1, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := SolveLinear(a, []float64{1, 2}); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestSolveLinearRandomResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(8)
		a := randMatrix(rng, n, n)
		for i := 0; i < n; i++ {
			a.Add(i, i, 5) // diagonally dominant-ish
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := MulVec(a, want)
		x, err := SolveLinear(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if !almostEq(x[i], want[i], 1e-9) {
				t.Fatalf("trial %d: x[%d]=%v want %v", trial, i, x[i], want[i])
			}
		}
	}
}

func TestPackedIndexing(t *testing.T) {
	if PackedIndex(2, 1) != PackedIndex(1, 2) || PackedIndex(2, 1) != 4 {
		t.Fatal("PackedIndex not symmetric")
	}
	if PackedIndex(3, 3) != 9 || PackedIndex(0, 0) != 0 {
		t.Fatal("PackedIndex formula wrong")
	}
}

func TestPackedQuickSymmetry(t *testing.T) {
	f := func(i, j uint8) bool {
		return PackedIndex(int(i), int(j)) == PackedIndex(int(j), int(i))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackedIndexBijection(t *testing.T) {
	// All (i>=j) pairs for n=20 must map to distinct indices covering 0..209.
	n := 20
	seen := make(map[int]bool)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			idx := PackedIndex(i, j)
			if seen[idx] {
				t.Fatalf("duplicate index %d", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != n*(n+1)/2 {
		t.Fatalf("covered %d indices", len(seen))
	}
}

func TestAxpyScaleZero(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := a.Clone()
	a.AxpyFrom(2, b)
	if a.At(1, 1) != 12 {
		t.Fatalf("axpy = %v", a)
	}
	a.Scale(0.5)
	if a.At(1, 1) != 6 {
		t.Fatalf("scale = %v", a)
	}
	a.Zero()
	if a.FrobeniusNorm() != 0 {
		t.Fatal("zero failed")
	}
}

func TestCopyFromAndPanics(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := New(2, 2)
	b.CopyFrom(a)
	if b.MaxAbsDiff(a) != 0 {
		t.Fatal("CopyFrom failed")
	}
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	c := New(3, 3)
	expectPanic("CopyFrom", func() { c.CopyFrom(a) })
	expectPanic("AxpyFrom", func() { c.AxpyFrom(1, a) })
	expectPanic("RMSDiff", func() { c.RMSDiff(a) })
	expectPanic("MaxAbsDiff", func() { c.MaxAbsDiff(a) })
	expectPanic("Dot", func() { Dot(c, a) })
	expectPanic("Mul", func() { Mul(a, New(3, 2)) })
	expectPanic("MulInto", func() { MulInto(c, a, a) })
	expectPanic("MulVec", func() { MulVec(a, []float64{1}) })
	expectPanic("Trace", func() { New(2, 3).Trace() })
	expectPanic("Symmetrize", func() { New(2, 3).Symmetrize() })
	expectPanic("EigenSym", func() { EigenSym(New(2, 3)) })
	expectPanic("SolveLinear", func() { SolveLinear(a, []float64{1, 2, 3}) })
}

func TestIsSymmetricNonSquare(t *testing.T) {
	if New(2, 3).IsSymmetric(1) {
		t.Fatal("non-square cannot be symmetric")
	}
	a := FromRows([][]float64{{1, 2}, {2.5, 1}})
	if a.IsSymmetric(0.4) || !a.IsSymmetric(0.6) {
		t.Fatal("tolerance handling wrong")
	}
}

func TestMatrixString(t *testing.T) {
	small := FromRows([][]float64{{1, 2}, {3, 4}})
	if s := small.String(); len(s) < 10 {
		t.Fatalf("String too short: %q", s)
	}
	big := New(30, 30)
	if s := big.String(); len(s) > 40 {
		t.Fatalf("large-matrix String should elide: %q", s)
	}
}

func TestRMSDiffEmpty(t *testing.T) {
	if New(0, 0).RMSDiff(New(0, 0)) != 0 {
		t.Fatal("empty RMSDiff should be 0")
	}
}

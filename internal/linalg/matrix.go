// Package linalg provides the dense linear algebra needed by the
// Hartree-Fock code: square matrices in row-major storage, a symmetric
// eigensolver, Löwdin orthogonalization, and triangular packed storage
// matching the layout GAMESS uses for Fock and density matrices.
//
// Everything is implemented from scratch on the standard library; the
// matrices involved in the real-execution path are at most a few thousand
// rows, for which straightforward O(N^3) algorithms are adequate.
package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix. The zero value is an empty matrix;
// use New to allocate.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zeroed rows x cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewSquare returns a zeroed n x n matrix.
func NewSquare(n int) *Matrix { return New(n, n) }

// FromRows builds a matrix from row slices; all rows must share a length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add adds v to element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src into m; dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("linalg: CopyFrom dimension mismatch")
	}
	copy(m.Data, src.Data)
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Scale multiplies every element by s.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AxpyFrom adds a*x to m element-wise.
func (m *Matrix) AxpyFrom(a float64, x *Matrix) {
	if m.Rows != x.Rows || m.Cols != x.Cols {
		panic("linalg: Axpy dimension mismatch")
	}
	for i, v := range x.Data {
		m.Data[i] += a * v
	}
}

// Transpose returns m^T as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Symmetrize averages m with its transpose in place; m must be square.
func (m *Matrix) Symmetrize() {
	if m.Rows != m.Cols {
		panic("linalg: Symmetrize requires a square matrix")
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < i; j++ {
			v := 0.5 * (m.At(i, j) + m.At(j, i))
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}

// MaxAbsDiff returns max |m - b| over all elements.
func (m *Matrix) MaxAbsDiff(b *Matrix) float64 {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("linalg: MaxAbsDiff dimension mismatch")
	}
	d := 0.0
	for i, v := range m.Data {
		if a := math.Abs(v - b.Data[i]); a > d {
			d = a
		}
	}
	return d
}

// RMSDiff returns the root-mean-square difference with b. This is the
// convergence metric the SCF loop applies to consecutive density matrices.
func (m *Matrix) RMSDiff(b *Matrix) float64 {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("linalg: RMSDiff dimension mismatch")
	}
	if len(m.Data) == 0 {
		return 0
	}
	s := 0.0
	for i, v := range m.Data {
		d := v - b.Data[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(m.Data)))
}

// FrobeniusNorm returns sqrt(sum m_ij^2).
func (m *Matrix) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Trace returns the sum of diagonal elements; m must be square.
func (m *Matrix) Trace() float64 {
	if m.Rows != m.Cols {
		panic("linalg: Trace requires a square matrix")
	}
	t := 0.0
	for i := 0; i < m.Rows; i++ {
		t += m.At(i, i)
	}
	return t
}

// Mul returns a*b as a new matrix.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := New(a.Rows, b.Cols)
	MulInto(c, a, b)
	return c
}

// MulInto computes c = a*b into an existing matrix. c must not alias a or b.
func MulInto(c, a, b *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("linalg: MulInto dimension mismatch")
	}
	c.Zero()
	// ikj loop order for cache-friendly access of b and c rows.
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range crow {
				crow[j] += aik * brow[j]
			}
		}
	}
}

// MulVec returns a*x for a vector x.
func MulVec(a *Matrix, x []float64) []float64 {
	if a.Cols != len(x) {
		panic("linalg: MulVec dimension mismatch")
	}
	y := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// TripleProduct returns a^T * b * a, the congruence transform used to move
// the Fock matrix into the orthogonal basis.
func TripleProduct(a, b *Matrix) *Matrix {
	return Mul(a.Transpose(), Mul(b, a))
}

// Dot returns the element-wise inner product sum_ij a_ij*b_ij, i.e.
// tr(a^T b). The SCF electronic energy is expressed with it.
func Dot(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("linalg: Dot dimension mismatch")
	}
	s := 0.0
	for i, v := range a.Data {
		s += v * b.Data[i]
	}
	return s
}

// IsSymmetric reports whether max |m_ij - m_ji| <= tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < i; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix %dx%d", m.Rows, m.Cols)
	if m.Rows*m.Cols > 400 {
		return b.String()
	}
	for i := 0; i < m.Rows; i++ {
		b.WriteString("\n")
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&b, " % .6f", m.At(i, j))
		}
	}
	return b.String()
}

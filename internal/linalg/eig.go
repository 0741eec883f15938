package linalg

import (
	"fmt"
	"math"
)

// EigenSym computes all eigenvalues and eigenvectors of a real symmetric
// matrix. It returns the eigenvalues in ascending order and a matrix whose
// COLUMNS are the corresponding orthonormal eigenvectors, so that
// a * vecs = vecs * diag(vals).
//
// The implementation is the classical two-stage dense path: Householder
// reduction to tridiagonal form followed by the implicit-shift QL
// iteration, accumulating the orthogonal transforms. It is O(N^3) and
// deterministic, which is what the Fock diagonalization step needs.
func EigenSym(a *Matrix) (vals []float64, vecs *Matrix) {
	if a.Rows != a.Cols {
		panic("linalg: EigenSym requires a square matrix")
	}
	n := a.Rows
	vals = make([]float64, n)
	if n == 0 {
		return vals, New(0, 0)
	}
	z := a.Clone() // working copy; becomes the eigenvector matrix
	e := make([]float64, n)
	tred2(z, vals, e)
	if err := tqli(vals, e, z); err != nil {
		panic(err)
	}
	sortEigen(vals, z)
	return vals, z
}

// tred2 reduces the symmetric matrix stored in z to tridiagonal form via
// Householder transformations, accumulating the transform in z. On return
// d holds the diagonal and e the subdiagonal (e[0] unused).
func tred2(z *Matrix, d, e []float64) {
	n := z.Rows
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		h, scale := 0.0, 0.0
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(z.At(i, k))
			}
			if scale == 0 {
				e[i] = z.At(i, l)
			} else {
				for k := 0; k <= l; k++ {
					v := z.At(i, k) / scale
					z.Set(i, k, v)
					h += v * v
				}
				f := z.At(i, l)
				g := math.Sqrt(h)
				if f > 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				z.Set(i, l, f-g)
				f = 0.0
				for j := 0; j <= l; j++ {
					z.Set(j, i, z.At(i, j)/h)
					g = 0.0
					for k := 0; k <= j; k++ {
						g += z.At(j, k) * z.At(i, k)
					}
					for k := j + 1; k <= l; k++ {
						g += z.At(k, j) * z.At(i, k)
					}
					e[j] = g / h
					f += e[j] * z.At(i, j)
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = z.At(i, j)
					g = e[j] - hh*f
					e[j] = g
					for k := 0; k <= j; k++ {
						z.Add(j, k, -(f*e[k] + g*z.At(i, k)))
					}
				}
			}
		} else {
			e[i] = z.At(i, l)
		}
		d[i] = h
	}
	d[0] = 0.0
	e[0] = 0.0
	for i := 0; i < n; i++ {
		l := i - 1
		if d[i] != 0 {
			for j := 0; j <= l; j++ {
				g := 0.0
				for k := 0; k <= l; k++ {
					g += z.At(i, k) * z.At(k, j)
				}
				for k := 0; k <= l; k++ {
					z.Add(k, j, -g*z.At(k, i))
				}
			}
		}
		d[i] = z.At(i, i)
		z.Set(i, i, 1.0)
		for j := 0; j <= l; j++ {
			z.Set(j, i, 0.0)
			z.Set(i, j, 0.0)
		}
	}
}

// tqli applies the implicit-shift QL algorithm to the tridiagonal matrix
// (d, e), updating the eigenvector accumulation in z.
func tqli(d, e []float64, z *Matrix) error {
	n := len(d)
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0.0
	for l := 0; l < n; l++ {
		iter := 0
		for {
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= math.SmallestNonzeroFloat64*dd || math.Abs(e[m])+dd == dd {
					break
				}
			}
			if m == l {
				break
			}
			iter++
			if iter > 50 {
				return fmt.Errorf("linalg: eigensolver failed to converge at index %d", l)
			}
			g := (d[l+1] - d[l]) / (2.0 * e[l])
			r := math.Hypot(g, 1.0)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			underflow := false
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0.0
					underflow = true
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2.0*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				for k := 0; k < z.Rows; k++ {
					f = z.At(k, i+1)
					z.Set(k, i+1, s*z.At(k, i)+c*f)
					z.Set(k, i, c*z.At(k, i)-s*f)
				}
			}
			// Only the early exit skips the closing update: a sweep that runs
			// to completion may end on r == 0 too (degenerate spectra).
			if underflow {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0.0
		}
	}
	return nil
}

// sortEigen sorts eigenvalues ascending, permuting eigenvector columns
// alongside (selection sort: n is small and this keeps it allocation-free).
func sortEigen(d []float64, z *Matrix) {
	n := len(d)
	for i := 0; i < n-1; i++ {
		k := i
		for j := i + 1; j < n; j++ {
			if d[j] < d[k] {
				k = j
			}
		}
		if k != i {
			d[i], d[k] = d[k], d[i]
			for r := 0; r < z.Rows; r++ {
				vi, vk := z.At(r, i), z.At(r, k)
				z.Set(r, i, vk)
				z.Set(r, k, vi)
			}
		}
	}
}

// LowdinOrthogonalizer returns X = S^{-1/2} for a symmetric positive
// definite overlap matrix S, computed via its eigendecomposition:
// X = U diag(1/sqrt(s)) U^T. It reports an error when S has an eigenvalue
// below linDepTol, which signals numerical linear dependence in the basis.
func LowdinOrthogonalizer(s *Matrix, linDepTol float64) (*Matrix, error) {
	vals, u := EigenSym(s)
	n := s.Rows
	for _, v := range vals {
		if v < linDepTol {
			return nil, fmt.Errorf("linalg: overlap eigenvalue %.3e below linear-dependence tolerance %.3e", v, linDepTol)
		}
	}
	// X = U * diag(1/sqrt(v)) * U^T
	x := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := 0.0
			for k := 0; k < n; k++ {
				sum += u.At(i, k) * u.At(j, k) / math.Sqrt(vals[k])
			}
			x.Set(i, j, sum)
			x.Set(j, i, sum)
		}
	}
	return x, nil
}

// SolveLinear solves the square system a*x = b by Gaussian elimination with
// partial pivoting, returning x. It is used by the DIIS extrapolation.
// a and b are not modified.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != a.Cols || a.Rows != len(b) {
		panic("linalg: SolveLinear dimension mismatch")
	}
	n := a.Rows
	m := a.Clone()
	x := make([]float64, n)
	copy(x, b)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// partial pivot
		p := col
		best := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				best, p = v, r
			}
		}
		if best == 0 {
			return nil, fmt.Errorf("linalg: singular system at column %d", col)
		}
		if p != col {
			for c := 0; c < n; c++ {
				vp, vc := m.At(p, c), m.At(col, c)
				m.Set(p, c, vc)
				m.Set(col, c, vp)
			}
			x[p], x[col] = x[col], x[p]
		}
		piv := m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) / piv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m.Add(r, c, -f*m.At(col, c))
			}
			x[r] -= f * x[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		for c := r + 1; c < n; c++ {
			s -= m.At(r, c) * x[c]
		}
		x[r] = s / m.At(r, r)
	}
	return x, nil
}

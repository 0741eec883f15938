package distmat

import (
	"fmt"
	"math"
)

// Distributed BLAS-3-ish primitives. Every function here is collective:
// all ranks of the world call it at the same point with the same
// arguments, and all end on a barrier, so a sequence of ops needs no
// extra synchronization between them. Mutating ops additionally OPEN
// with a barrier: window storage is shared, so a rank that reaches the
// op early must not overwrite tiles a slower rank is still reading
// one-sided — the opening fence closes the read epoch before the first
// write. Tile-aligned binary ops require operands of identical shape
// (same N, BS and grid), which guarantees co-location: matching tiles
// of both operands live on the same rank, so element-wise work is pure
// local arithmetic.

// forOwned visits every tile the calling rank owns.
func (m *BlockMat) forOwned(visit func(bi, bj int)) {
	me := m.Dx.Comm.Rank()
	for bi := 0; bi < m.NB; bi++ {
		for bj := 0; bj < m.NB; bj++ {
			if m.owner[bi*m.NB+bj] == me {
				visit(bi, bj)
			}
		}
	}
}

// MatMul computes c = a * b. c must not alias a or b. Each rank computes
// only its owned tiles of c, streaming the needed row of a-tiles and
// column of b-tiles through one-sided gets — the SUMMA-style inner
// product over the block dimension.
func MatMul(c, a, b *BlockMat) {
	c.sameShape(a)
	c.sameShape(b)
	if c == a || c == b {
		panic("distmat: MatMul output aliases an input")
	}
	c.Dx.Comm.Barrier()
	bs := c.BS
	abuf := make([]float64, bs*bs)
	bbuf := make([]float64, bs*bs)
	ctile := make([]float64, bs*bs)
	c.forOwned(func(bi, bj int) {
		for i := range ctile {
			ctile[i] = 0
		}
		for k := 0; k < c.NB; k++ {
			a.GetTile(bi, k, abuf)
			b.GetTile(k, bj, bbuf)
			tileMulAdd(ctile, abuf, bbuf, bs)
		}
		c.PutTile(bi, bj, ctile)
	})
	c.Dx.Comm.Barrier()
}

// Copy sets dst = src (same shape).
func Copy(dst, src *BlockMat) {
	dst.sameShape(src)
	dst.Dx.Comm.Barrier()
	buf := make([]float64, dst.BS*dst.BS)
	dst.forOwned(func(bi, bj int) {
		src.GetTile(bi, bj, buf)
		dst.PutTile(bi, bj, buf)
	})
	dst.Dx.Comm.Barrier()
}

// Scale multiplies every element of m by s.
func Scale(m *BlockMat, s float64) {
	m.Dx.Comm.Barrier()
	buf := make([]float64, m.BS*m.BS)
	m.forOwned(func(bi, bj int) {
		m.GetTile(bi, bj, buf)
		for i := range buf {
			buf[i] *= s
		}
		m.PutTile(bi, bj, buf)
	})
	m.Dx.Comm.Barrier()
}

// Axpby sets y = a*x + b*y element-wise (same shape).
func Axpby(y, x *BlockMat, a, b float64) {
	y.sameShape(x)
	y.Dx.Comm.Barrier()
	xbuf := make([]float64, y.BS*y.BS)
	ybuf := make([]float64, y.BS*y.BS)
	y.forOwned(func(bi, bj int) {
		x.GetTile(bi, bj, xbuf)
		y.GetTile(bi, bj, ybuf)
		for i := range ybuf {
			ybuf[i] = a*xbuf[i] + b*ybuf[i]
		}
		y.PutTile(bi, bj, ybuf)
	})
	y.Dx.Comm.Barrier()
}

// AddScaledIdentity adds s to every diagonal element of m.
func AddScaledIdentity(m *BlockMat, s float64) {
	m.Dx.Comm.Barrier()
	bs := m.BS
	buf := make([]float64, bs*bs)
	m.forOwned(func(bi, bj int) {
		if bi != bj {
			return
		}
		m.GetTile(bi, bj, buf)
		for r := 0; r < bs && bi*bs+r < m.N; r++ {
			buf[r*bs+r] += s
		}
		m.PutTile(bi, bj, buf)
	})
	m.Dx.Comm.Barrier()
}

// LinearCombine sets dst = sum_i coefs[i]*mats[i] (all same shape).
// dst may appear among mats: each tile's inputs are read before the tile
// is written, and tiles are co-located, so no rank observes a partial
// update.
func LinearCombine(dst *BlockMat, coefs []float64, mats []*BlockMat) {
	if len(coefs) != len(mats) {
		panic(fmt.Sprintf("distmat: %d coefficients for %d matrices", len(coefs), len(mats)))
	}
	for _, m := range mats {
		dst.sameShape(m)
	}
	dst.Dx.Comm.Barrier()
	buf := make([]float64, dst.BS*dst.BS)
	acc := make([]float64, dst.BS*dst.BS)
	dst.forOwned(func(bi, bj int) {
		for i := range acc {
			acc[i] = 0
		}
		for t, m := range mats {
			m.GetTile(bi, bj, buf)
			for i := range acc {
				acc[i] += coefs[t] * buf[i]
			}
		}
		dst.PutTile(bi, bj, acc)
	})
	dst.Dx.Comm.Barrier()
}

// AntiSymmetrize sets e = a - a^T (same shape). The commutator-residual
// builder for orthonormal-basis DIIS: with a = F'D', e is [F', D'] up to
// the symmetry of the operands.
func AntiSymmetrize(e, a *BlockMat) {
	e.sameShape(a)
	if e == a {
		panic("distmat: AntiSymmetrize output aliases its input")
	}
	e.Dx.Comm.Barrier()
	bs := e.BS
	buf := make([]float64, bs*bs)
	tbuf := make([]float64, bs*bs)
	out := make([]float64, bs*bs)
	e.forOwned(func(bi, bj int) {
		a.GetTile(bi, bj, buf)
		a.GetTile(bj, bi, tbuf)
		for r := 0; r < bs; r++ {
			for c := 0; c < bs; c++ {
				out[r*bs+c] = buf[r*bs+c] - tbuf[c*bs+r]
			}
		}
		e.PutTile(bi, bj, out)
	})
	e.Dx.Comm.Barrier()
}

// UnfoldLower mirrors the lower triangle into the upper one — the
// distributed Finalize for tile-accumulated Fock builds, which write
// every symmetry-unique contribution at its canonical (max, min)
// location and leave the strict upper triangle zero.
func UnfoldLower(m *BlockMat) {
	bs := m.BS
	buf := make([]float64, bs*bs)
	out := make([]float64, bs*bs)
	m.Dx.Comm.Barrier() // all accumulates must land before tiles are read
	m.forOwned(func(bi, bj int) {
		if bi < bj {
			return
		}
		m.GetTile(bi, bj, buf)
		if bi == bj {
			for r := 0; r < bs; r++ {
				for c := r + 1; c < bs; c++ {
					buf[r*bs+c] = buf[c*bs+r]
				}
			}
			m.PutTile(bi, bj, buf)
			return
		}
		for r := 0; r < bs; r++ {
			for c := 0; c < bs; c++ {
				out[c*bs+r] = buf[r*bs+c]
			}
		}
		m.PutTile(bj, bi, out)
	})
	m.Dx.Comm.Barrier()
}

// Trace returns tr(m), identical on every rank (local partial + global
// sum; the in-order allreduce makes the value deterministic, which the
// purification branch decisions rely on).
func Trace(m *BlockMat) float64 {
	bs := m.BS
	buf := make([]float64, bs*bs)
	sum := 0.0
	m.forOwned(func(bi, bj int) {
		if bi != bj {
			return
		}
		m.GetTile(bi, bj, buf)
		for r := 0; r < bs && bi*bs+r < m.N; r++ {
			sum += buf[r*bs+r]
		}
	})
	v := []float64{sum}
	m.Dx.GSumF(v)
	m.Dx.Comm.Barrier()
	return v[0]
}

// Dot returns the element-wise inner product <a, b>, identical on every
// rank.
func Dot(a, b *BlockMat) float64 {
	a.sameShape(b)
	abuf := make([]float64, a.BS*a.BS)
	bbuf := make([]float64, a.BS*a.BS)
	sum := 0.0
	a.forOwned(func(bi, bj int) {
		a.GetTile(bi, bj, abuf)
		b.GetTile(bi, bj, bbuf)
		for i := range abuf {
			sum += abuf[i] * bbuf[i]
		}
	})
	v := []float64{sum}
	a.Dx.GSumF(v)
	a.Dx.Comm.Barrier()
	return v[0]
}

// FrobeniusNorm returns ||m||_F, identical on every rank.
func FrobeniusNorm(m *BlockMat) float64 { return math.Sqrt(Dot(m, m)) }

// FrobSqDiff returns ||a - b||_F^2, identical on every rank.
func FrobSqDiff(a, b *BlockMat) float64 {
	a.sameShape(b)
	abuf := make([]float64, a.BS*a.BS)
	bbuf := make([]float64, a.BS*a.BS)
	sum := 0.0
	a.forOwned(func(bi, bj int) {
		a.GetTile(bi, bj, abuf)
		b.GetTile(bi, bj, bbuf)
		for i := range abuf {
			d := abuf[i] - bbuf[i]
			sum += d * d
		}
	})
	v := []float64{sum}
	a.Dx.GSumF(v)
	a.Dx.Comm.Barrier()
	return v[0]
}

// RMSDiff returns sqrt(sum (a-b)^2 / N^2) — the distributed counterpart
// of linalg.Matrix.RMSDiff over the logical N x N elements (padding is
// zero in both operands and contributes nothing).
func RMSDiff(a, b *BlockMat) float64 {
	return math.Sqrt(FrobSqDiff(a, b) / float64(a.N*a.N))
}

// Gershgorin returns spectral bounds [lo, hi] of the symmetric matrix m
// from Gershgorin discs: every eigenvalue lies within radius
// sum_{j!=i} |m_ij| of some diagonal element. Each rank accumulates
// partial diagonal and absolute-row-sum vectors over its tiles; two
// global sums make the bounds identical everywhere.
func Gershgorin(m *BlockMat) (lo, hi float64) {
	bs := m.BS
	buf := make([]float64, bs*bs)
	diag := make([]float64, m.N)
	absRow := make([]float64, m.N)
	m.forOwned(func(bi, bj int) {
		m.GetTile(bi, bj, buf)
		for r := 0; r < bs && bi*bs+r < m.N; r++ {
			row := bi*bs + r
			for c := 0; c < bs && bj*bs+c < m.N; c++ {
				v := buf[r*bs+c]
				absRow[row] += math.Abs(v)
				if bi == bj && r == c {
					diag[row] = v
				}
			}
		}
	})
	m.Dx.GSumF(diag)
	m.Dx.GSumF(absRow)
	m.Dx.Comm.Barrier()
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < m.N; i++ {
		r := absRow[i] - math.Abs(diag[i])
		if diag[i]-r < lo {
			lo = diag[i] - r
		}
		if diag[i]+r > hi {
			hi = diag[i] + r
		}
	}
	return lo, hi
}

// tileMulAdd adds a*b into c (bs x bs row-major tiles), skipping zero
// a-elements (padded tiles make these common). Its place in this file
// (last, below Gershgorin) is on purpose: its 28-byte inner loop runs ~25%
// slower when it straddles a 64-byte line, which is decided by the
// function's address mod 64 in the linked binary — and that by what
// precedes it (DESIGN.md §3.1 layout note). After any change that adds
// or removes code in omp, mpi, ddi, linalg or this file, check that
// `go tool nm` of the bench binary still puts it at 0 mod 64.
func tileMulAdd(c, a, b []float64, bs int) {
	for i := 0; i < bs; i++ {
		arow := a[i*bs : (i+1)*bs]
		crow := c[i*bs : (i+1)*bs]
		for k := 0; k < bs; k++ {
			v := arow[k]
			if v == 0 {
				continue
			}
			brow := b[k*bs : (k+1)*bs]
			for j := 0; j < bs; j++ {
				crow[j] += v * brow[j]
			}
		}
	}
}

package distmat

import (
	"fmt"
	"math"

	"repro/internal/linalg"
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

// live returns the number of rows (or columns) of block b that lie
// within the logical dimension N.
func (m *BlockMat) live(b int) int { return min(m.BS, m.N-b*m.BS) }

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
// product over the block dimension. Each tile product runs over the
// tiles' live extents only, so the padding past N costs no flops and the
// padded entries of c stay zero.
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
		clear(ctile)
		for k := 0; k < c.NB; k++ {
			linalg.MulAdd(ctile, bs, a.readTile(bi, k, abuf), bs, b.readTile(k, bj, bbuf), bs,
				c.live(bi), c.live(bj), c.live(k))
		}
		c.PutTile(bi, bj, ctile)
	})
	c.Dx.Comm.Barrier()
}

// Square computes c = x * x for an exactly symmetric x (x[i][j] and
// x[j][i] hold the same bits) with one tile product per mirrored pair of
// c: X^2[j][i] sums the same products in the same k order as X^2[i][j],
// so a product's transpose is its mirror and c has MatMul's bits. The
// rank squarePlan names writes the pair's tile it owns, plus the
// transpose when it owns the mirror too; after a barrier each owner
// fills its other tiles from their mirrors. c must not alias x.
func Square(c, x *BlockMat) {
	c.sameShape(x)
	if c == x {
		panic("distmat: Square output aliases its input")
	}
	c.Dx.Comm.Barrier()
	me := c.Dx.Comm.Rank()
	nb, bs := c.NB, c.BS
	plan := c.squarePlan()
	abuf, bbuf := make([]float64, bs*bs), make([]float64, bs*bs)
	ctile, ttile := make([]float64, bs*bs), make([]float64, bs*bs)
	for bi := 0; bi < nb; bi++ {
		for bj := 0; bj <= bi; bj++ {
			if plan[bi*nb+bj] != me {
				continue
			}
			ti, tj := bi, bj
			if !c.OwnsTile(ti, tj) {
				ti, tj = bj, bi
			}
			clear(ctile)
			for k := 0; k < nb; k++ {
				linalg.MulAdd(ctile, bs, x.readTile(ti, k, abuf), bs, x.readTile(k, tj, bbuf), bs,
					c.live(ti), c.live(tj), c.live(k))
			}
			c.PutTile(ti, tj, ctile)
			if ti != tj && c.OwnsTile(tj, ti) {
				transpose(ttile, ctile, bs)
				c.PutTile(tj, ti, ttile)
			}
		}
	}
	c.Dx.Comm.Barrier()
	c.forOwned(func(bi, bj int) {
		if plan[max(bi, bj)*nb+min(bi, bj)] != me {
			transpose(ttile, c.readTile(bj, bi, ctile), bs)
			c.PutTile(bi, bj, ttile)
		}
	})
	c.Dx.Comm.Barrier()
}

// squarePlan names, per mirrored tile pair keyed by its lower tile (index
// bi*NB+bj, bi >= bj), the rank that computes its product: a diagonal
// tile, or a pair with one owner, goes to that owner; each other pair
// then to whichever of its two owners has fewer products so far (the
// lower tile's owner on a tie). Every rank computes the same plan.
func (m *BlockMat) squarePlan() []int {
	plan := make([]int, m.NB*m.NB)
	load := make([]int, m.Dx.Comm.Size())
	for _, shared := range []bool{true, false} {
		for bi := 0; bi < m.NB; bi++ {
			for bj := 0; bj <= bi; bj++ {
				lo, up := m.owner[bi*m.NB+bj], m.owner[bj*m.NB+bi]
				if (lo == up) != shared {
					continue
				}
				r := lo
				if load[up] < load[lo] {
					r = up
				}
				plan[bi*m.NB+bj] = r
				load[r]++
			}
		}
	}
	return plan
}

// transpose sets the bs x bs tile dst to src transposed.
func transpose(dst, src []float64, bs int) {
	for r := 0; r < bs; r++ {
		for c := 0; c < bs; c++ {
			dst[c*bs+r] = src[r*bs+c]
		}
	}
}

// Copy sets dst = src (same shape).
func Copy(dst, src *BlockMat) {
	dst.linearOp([]*BlockMat{src}, func(out []float64, in [][]float64) {
		copy(out, in[0])
	})
}

// Scale multiplies every element of m by s.
func Scale(m *BlockMat, s float64) {
	m.linearOp([]*BlockMat{m}, func(out []float64, in [][]float64) {
		for i, v := range in[0][:len(out)] {
			out[i] = v * s
		}
	})
}

// Axpby sets y = a*x + b*y element-wise (same shape).
func Axpby(y, x *BlockMat, a, b float64) {
	y.linearOp([]*BlockMat{x, y}, func(out []float64, in [][]float64) {
		xt, yt := in[0][:len(out)], in[1][:len(out)]
		for i := range out {
			out[i] = a*xt[i] + b*yt[i]
		}
	})
}

// AddScaledIdentity adds s to every diagonal element of m. Only the
// diagonal tiles change; an ABFT matrix adds s·I to the parity of the
// groups holding them (addParityDiagonal).
func AddScaledIdentity(m *BlockMat, s float64) {
	m.Dx.Comm.Barrier()
	bs := m.BS
	m.forOwned(func(bi, bj int) {
		if bi != bj {
			return
		}
		t := m.ownedTile(bi, bj)
		for r := 0; r < m.live(bi); r++ {
			t[r*bs+r] += s
		}
	})
	if m.ab != nil {
		m.addParityDiagonal(s)
	}
	m.Dx.Comm.Barrier()
}

// LinearCombine sets dst = sum_i coefs[i]*mats[i] (all same shape).
// dst may appear among mats: each element's inputs are read before it
// is written, and tiles are co-located, so no rank observes a partial
// update.
func LinearCombine(dst *BlockMat, coefs []float64, mats []*BlockMat) {
	if len(coefs) != len(mats) {
		panic(fmt.Sprintf("distmat: %d coefficients for %d matrices", len(coefs), len(mats)))
	}
	dst.linearOp(mats, func(out []float64, in [][]float64) {
		for i := range out {
			acc := 0.0
			for t, c := range coefs {
				acc += c * in[t][i]
			}
			out[i] = acc
		}
	})
}

// linearOp collectively sets every tile of m to f of the matching tiles
// of ins (all of m's shape; m may be among them). f is a linear map
// applied element by element, so it may write out while reading an
// input that aliases it. Owned tiles are written in place. When m and
// every input are ABFT over the same parity plan (same shape, same
// grid), f applied to the inputs' parity tiles is the parity of f's
// result (linearParity), so no tile needs a PutTile delta; only an ABFT
// m fed a plain input keeps parity through PutTile.
func (m *BlockMat) linearOp(ins []*BlockMat, f func(out []float64, in [][]float64)) {
	carry := m.ab != nil
	for _, x := range ins {
		m.sameShape(x)
		carry = carry && x.ab != nil
	}
	var buf []float64
	if m.ab != nil && !carry {
		buf = make([]float64, m.BS*m.BS)
	}
	in := make([][]float64, len(ins))
	m.Dx.Comm.Barrier()
	m.forOwned(func(bi, bj int) {
		for k, x := range ins {
			in[k] = x.readTile(bi, bj, nil)
		}
		if buf == nil {
			f(m.ownedTile(bi, bj), in)
			return
		}
		f(buf, in)
		m.PutTile(bi, bj, buf)
	})
	if carry {
		m.linearParity(ins, f)
	}
	m.Dx.Comm.Barrier()
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
	tbuf := make([]float64, bs*bs)
	out := make([]float64, bs*bs)
	e.forOwned(func(bi, bj int) {
		at, tt := a.readTile(bi, bj, nil), a.readTile(bj, bi, tbuf)
		for r := 0; r < bs; r++ {
			for c := 0; c < bs; c++ {
				out[r*bs+c] = at[r*bs+c] - tt[c*bs+r]
			}
		}
		e.PutTile(bi, bj, out)
	})
	e.Dx.Comm.Barrier()
}

// UnfoldLower mirrors the lower triangle into the upper one — how a
// tile-accumulated Fock build closes: its sink writes
// every symmetry-unique contribution at its canonical (max, min)
// location and leaves the strict upper triangle zero.
func UnfoldLower(m *BlockMat) {
	bs := m.BS
	out := make([]float64, bs*bs)
	m.Dx.Comm.Barrier() // all accumulates must land before tiles are read
	m.forOwned(func(bi, bj int) {
		if bi < bj {
			return
		}
		t := m.readTile(bi, bj, nil)
		if bi == bj {
			copy(out, t)
			for r := 0; r < bs; r++ {
				for c := r + 1; c < bs; c++ {
					out[r*bs+c] = out[c*bs+r]
				}
			}
			m.PutTile(bi, bj, out)
			return
		}
		transpose(out, t, bs)
		m.PutTile(bj, bi, out)
	})
	m.Dx.Comm.Barrier()
}

// Dot returns the element-wise inner product <a, b>, identical on every
// rank.
func Dot(a, b *BlockMat) float64 {
	a.sameShape(b)
	sum := 0.0
	a.forOwned(func(bi, bj int) {
		bt := b.readTile(bi, bj, nil)
		for i, v := range a.readTile(bi, bj, nil) {
			sum += v * bt[i]
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
	sum := 0.0
	a.forOwned(func(bi, bj int) {
		bt := b.readTile(bi, bj, nil)
		for i, v := range a.readTile(bi, bj, nil) {
			d := v - bt[i]
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
	diag := make([]float64, m.N)
	absRow := make([]float64, m.N)
	m.forOwned(func(bi, bj int) {
		buf := m.readTile(bi, bj, nil)
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

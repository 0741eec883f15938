package integrals

import "math"

// hermE is the table of 1D Hermite expansion coefficients E_t^{ij} of a
// primitive pair along one axis, for 0 <= i <= la, 0 <= j <= lb and
// 0 <= t <= i+j, in one flat slice: rows of la+lb+1 entries per (i, j).
// Entries a row does not hold (past t = i+j, or past what hermiteE keeps
// of a head row) are never written nor read.
type hermE struct {
	e     []float64
	lb, w int // w = la+lb+1
}

// at returns E_t^{ij}.
func (h hermE) at(i, j, t int) float64 { return h.e[h.index(i, j, t)] }

func (h hermE) index(i, j, t int) int { return (i*(h.lb+1)+j)*h.w + t }

// row returns E_t^{ij} for 0 <= t <= i+j.
func (h hermE) row(i, j int) []float64 { return h.e[h.index(i, j, 0):][:i+j+1] }

// hermESize is the length of the table hermiteE fills.
func hermESize(la, lb int) int { return (la + 1) * (lb + 1) * (la + lb + 1) }

// hermiteE computes the 1D Hermite expansion coefficients E_t^{ij} for a
// primitive pair with exponents a (on A) and b (on B) along one axis,
// where xAB = Ax - Bx, for 0 <= i <= la, 0 <= j <= lb, 0 <= t <= i+j,
// into buf, which holds at least hermESize(la, lb+head) entries. The head
// rows past lb hold only what the kinetic energy's shifted overlaps read
// on the way to E_0^{i,lb+head}: t <= lb+head-j.
//
// Recurrences (Helgaker, Jørgensen, Olsen ch. 9):
//
//	E_0^{00}    = exp(-mu xAB^2)
//	E_t^{i+1,j} = E_{t-1}^{ij}/(2p) + xPA E_t^{ij} + (t+1) E_{t+1}^{ij}
//	E_t^{i,j+1} = E_{t-1}^{ij}/(2p) + xPB E_t^{ij} + (t+1) E_{t+1}^{ij}
func hermiteE(la, lb, head int, a, b, xAB float64, buf []float64) hermE {
	p := a + b
	mu := a * b / p
	xPA := -b / p * xAB // Px - Ax with Px = (a Ax + b Bx)/p
	xPB := a / p * xAB  // Px - Bx

	top := lb + head
	h := hermE{e: buf[:hermESize(la, top)], lb: top, w: la + top + 1}
	h.e[0] = 1 // exp(-0): same-centre pairs and coplanar centres skip the call
	if xAB != 0 {
		h.e[0] = math.Exp(-mu * xAB * xAB)
	}
	// Build up i with j = 0, then j for each i.
	for i := 0; i < la; i++ {
		hermStep(h.e[h.index(i+1, 0, 0):], h.e[h.index(i, 0, 0):], i, i+1, 2*p, xPA)
	}
	for i := 0; i <= la; i++ {
		for j := 0; j < top; j++ {
			tmax := i + j + 1
			if j >= lb {
				tmax = top - j - 1
			}
			hermStep(h.e[h.index(i, j+1, 0):], h.e[h.index(i, j, 0):], i+j, tmax, 2*p, xPB)
		}
	}
	return h
}

// hermStep writes entries t <= tmax <= n+1 of the row of order n+1 from
// src, the row of order n: dst[t] = src[t-1]/p2 + x src[t] + (t+1)
// src[t+1], every term outside 0 <= t <= n taken as zero and still added,
// so the sums are the ones a zero-padded table gives.
func hermStep(dst, src []float64, n, tmax int, p2, x float64) {
	for t := 0; t <= tmax; t++ {
		var lo, mid, hi float64
		if t > 0 {
			lo = src[t-1]
		}
		if t <= n {
			mid = src[t]
		}
		if t < n {
			hi = src[t+1]
		}
		dst[t] = lo/p2 + x*mid + float64(t+1)*hi
	}
}

// pairE is hermiteE of one primitive pair along x, y and z.
type pairE [3]hermE

// newPairE fills the three tables, with head rows past lb, from buf,
// which holds at least 3*hermESize(la, lb+head) entries.
func newPairE(la, lb, head int, a, b float64, ab [3]float64, buf []float64) pairE {
	n := hermESize(la, lb+head)
	return pairE{hermiteE(la, lb, head, a, b, ab[0], buf), hermiteE(la, lb, head, a, b, ab[1], buf[n:]), hermiteE(la, lb, head, a, b, ab[2], buf[2*n:])}
}

// rows returns the rows E^{ij} along x, y and z of the component pair
// (ca, cb): E_t E_u E_v is x[t] * y[u] * z[v].
func (e *pairE) rows(ca, cb *component) (x, y, z []float64) {
	return e[0].row(ca.lx, cb.lx), e[1].row(ca.ly, cb.ly), e[2].row(ca.lz, cb.lz)
}

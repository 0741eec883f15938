package integrals

import "math"

// hermE is the table of 1D Hermite expansion coefficients E_t^{ij} of a
// primitive pair along one axis, for 0 <= i <= la, 0 <= j <= lb and
// 0 <= t <= i+j, in one flat slice: rows of la+lb+1 entries per (i, j).
type hermE struct {
	e     []float64
	lb, w int // w = la+lb+1
}

// at returns E_t^{ij}.
func (h hermE) at(i, j, t int) float64 { return h.e[h.index(i, j, t)] }

func (h hermE) index(i, j, t int) int { return (i*(h.lb+1)+j)*h.w + t }

// hermiteE computes the 1D Hermite expansion coefficients E_t^{ij} for a
// primitive pair with exponents a (on A) and b (on B) along one axis,
// where xAB = Ax - Bx, for 0 <= i <= la, 0 <= j <= lb, 0 <= t <= i+j.
//
// Recurrences (Helgaker, Jørgensen, Olsen ch. 9):
//
//	E_0^{00}    = exp(-mu xAB^2)
//	E_t^{i+1,j} = E_{t-1}^{ij}/(2p) + xPA E_t^{ij} + (t+1) E_{t+1}^{ij}
//	E_t^{i,j+1} = E_{t-1}^{ij}/(2p) + xPB E_t^{ij} + (t+1) E_{t+1}^{ij}
func hermiteE(la, lb int, a, b, xAB float64) hermE {
	p := a + b
	mu := a * b / p
	xPA := -b / p * xAB // Px - Ax with Px = (a Ax + b Bx)/p
	xPB := a / p * xAB  // Px - Bx

	h := hermE{lb: lb, w: la + lb + 1}
	h.e = make([]float64, (la+1)*(lb+1)*h.w)
	h.e[0] = math.Exp(-mu * xAB * xAB)
	get := func(i, j, t int) float64 {
		if t < 0 || t > i+j {
			return 0
		}
		return h.at(i, j, t)
	}
	// Build up i with j = 0, then j for each i.
	for i := 0; i < la; i++ {
		for t := 0; t <= i+1; t++ {
			h.e[h.index(i+1, 0, t)] = get(i, 0, t-1)/(2*p) + xPA*get(i, 0, t) + float64(t+1)*get(i, 0, t+1)
		}
	}
	for i := 0; i <= la; i++ {
		for j := 0; j < lb; j++ {
			for t := 0; t <= i+j+1; t++ {
				h.e[h.index(i, j+1, t)] = get(i, j, t-1)/(2*p) + xPB*get(i, j, t) + float64(t+1)*get(i, j, t+1)
			}
		}
	}
	return h
}

// pairE is hermiteE of one primitive pair along x, y and z.
type pairE [3]hermE

func newPairE(la, lb int, a, b float64, ab [3]float64) pairE {
	return pairE{hermiteE(la, lb, a, b, ab[0]), hermiteE(la, lb, a, b, ab[1]), hermiteE(la, lb, a, b, ab[2])}
}

// product returns E_t E_u E_v of the component pair (ca, cb).
func (e *pairE) product(ca, cb component, t, u, v int) float64 {
	return e[0].at(ca.lx, cb.lx, t) * e[1].at(ca.ly, cb.ly, u) * e[2].at(ca.lz, cb.lz, v)
}

// hermiteR computes the Hermite Coulomb integrals R^0_{tuv} for all
// t+u+v <= l, for Gaussian exponent alpha and separation (x, y, z):
//
//	R^n_{000}     = (-2 alpha)^n F_n(alpha r^2)
//	R^n_{t+1,u,v} = t R^{n+1}_{t-1,u,v} + x R^{n+1}_{tuv}   (etc. for u, v)
//
// The result is a flat array indexed by rIndex(t, u, v, l), in buf, which
// holds at least rBuf(l) entries.
func hermiteR(l int, alpha, x, y, z float64, buf []float64) []float64 {
	r2 := x*x + y*y + z*z
	fn := buf[:l+1]
	Boys(l, alpha*r2, fn)

	// cur[n] tables hold R^n for decreasing n; we iterate n from l down to
	// 0, extending the (t,u,v) range at each step.
	size := rSize(l)
	cur := buf[l+1:][:size]
	next := buf[l+1+size:][:size]
	pow := 1.0
	// n = l: only R^l_{000}.
	for n := l; n >= 0; n-- {
		// pow = (-2 alpha)^n
		pow = math.Pow(-2*alpha, float64(n))
		next, cur = cur, next
		for i := range cur {
			cur[i] = 0
		}
		cur[rIndex(0, 0, 0, l)] = pow * fn[n]
		maxOrder := l - n
		for total := 1; total <= maxOrder; total++ {
			for t := 0; t <= total; t++ {
				for u := 0; u <= total-t; u++ {
					v := total - t - u
					var val float64
					switch {
					case t > 0:
						val = x * next[rIndex(t-1, u, v, l)]
						if t > 1 {
							val += float64(t-1) * next[rIndex(t-2, u, v, l)]
						}
					case u > 0:
						val = y * next[rIndex(t, u-1, v, l)]
						if u > 1 {
							val += float64(u-1) * next[rIndex(t, u-2, v, l)]
						}
					default:
						val = z * next[rIndex(t, u, v-1, l)]
						if v > 1 {
							val += float64(v-1) * next[rIndex(t, u, v-2, l)]
						}
					}
					cur[rIndex(t, u, v, l)] = val
				}
			}
		}
	}
	return cur
}

// rSize returns the flat table size for all t,u,v with t,u,v <= l
// individually (a cube indexing keeps rIndex trivial and branch-free).
func rSize(l int) int { return (l + 1) * (l + 1) * (l + 1) }

// rBuf is the scratch hermiteR of order l needs: F_n and two tables.
func rBuf(l int) int { return l + 1 + 2*rSize(l) }

// rIndex maps (t, u, v) into the flat R table for max order l.
func rIndex(t, u, v, l int) int { return (t*(l+1)+u)*(l+1) + v }

// Package oracle is the independent reference the tests hold the
// production integrals and Fock builds to: the textbook McMurchie-Davidson
// ERI loop nest, evaluated primitive quartet by primitive quartet with its
// own Hermite tables and Boys function, the dense ERI tensor built from it,
// and the symmetry-free Coulomb and exchange contractions over that tensor.
//
// It shares no code with internal/integrals, so a fault in the production
// kernel cannot cancel out of a comparison against it. Only tests import
// it: no command and not the facade links it (ci.sh tier 1 checks both).
// N^4 memory for the tensor — small molecules only.
package oracle

import (
	"math"

	"repro/internal/basis"
	"repro/internal/linalg"
)

// Direct evaluates ERI blocks straight from a basis, with no precomputed
// pair data and no screening of any kind.
type Direct struct {
	b      *basis.Basis
	comps  [][]component
	tensor []float64 // Tensor's result, computed on first use
}

// New returns the oracle over b.
func New(b *basis.Basis) *Direct {
	d := &Direct{b: b, comps: make([][]component, len(b.Shells))}
	for i := range b.Shells {
		d.comps[i] = componentsOf(&b.Shells[i])
	}
	return d
}

// component is one cartesian function of a shell, in basis-function order.
type component struct {
	lx, ly, lz int
	mi         int     // moment index into Coefs
	norm       float64 // cartesian component normalization factor
}

func componentsOf(s *basis.Shell) []component {
	var out []component
	for mi, l := range s.Moments {
		for _, c := range basis.CartComponents(l) {
			out = append(out, component{lx: c[0], ly: c[1], lz: c[2], mi: mi,
				norm: basis.CartNormFactor(c[0], c[1], c[2])})
		}
	}
	return out
}

// ShellQuartet computes the full block of two-electron repulsion integrals
// (ab|cd) in chemists' notation for shells (si, sj, sk, sl), in any index
// order, returning values in basis-function order with layout
// out[((fa*nb+fb)*nc+fc)*nd+fd]. The slice is reallocated when too small.
func (e *Direct) ShellQuartet(si, sj, sk, sl int, out []float64) []float64 {
	shells := e.b.Shells
	sa, sb, sc, sd := &shells[si], &shells[sj], &shells[sk], &shells[sl]
	ca, cb, cc, cd := e.comps[si], e.comps[sj], e.comps[sk], e.comps[sl]
	need := len(ca) * len(cb) * len(cc) * len(cd)
	if cap(out) < need {
		out = make([]float64, need)
	}
	out = out[:need]
	clear(out)

	la, lb := sa.MaxL(), sb.MaxL()
	lc, ld := sc.MaxL(), sd.MaxL()
	ltot := la + lb + lc + ld

	abx := sa.Center[0] - sb.Center[0]
	aby := sa.Center[1] - sb.Center[1]
	abz := sa.Center[2] - sb.Center[2]
	cdx := sc.Center[0] - sd.Center[0]
	cdy := sc.Center[1] - sd.Center[1]
	cdz := sc.Center[2] - sd.Center[2]

	for p, ap := range sa.Exps {
		for q, bq := range sb.Exps {
			pp := ap + bq
			px := (ap*sa.Center[0] + bq*sb.Center[0]) / pp
			py := (ap*sa.Center[1] + bq*sb.Center[1]) / pp
			pz := (ap*sa.Center[2] + bq*sb.Center[2]) / pp
			e1x := hermiteE(la, lb, ap, bq, abx)
			e1y := hermiteE(la, lb, ap, bq, aby)
			e1z := hermiteE(la, lb, ap, bq, abz)
			for r, cr := range sc.Exps {
				for s, ds := range sd.Exps {
					qq := cr + ds
					qx := (cr*sc.Center[0] + ds*sd.Center[0]) / qq
					qy := (cr*sc.Center[1] + ds*sd.Center[1]) / qq
					qz := (cr*sc.Center[2] + ds*sd.Center[2]) / qq
					e2x := hermiteE(lc, ld, cr, ds, cdx)
					e2y := hermiteE(lc, ld, cr, ds, cdy)
					e2z := hermiteE(lc, ld, cr, ds, cdz)
					alpha := pp * qq / (pp + qq)
					rt := hermiteR(ltot, alpha, px-qx, py-qy, pz-qz)
					pref := 2 * math.Pow(math.Pi, 2.5) /
						(pp * qq * math.Sqrt(pp+qq))

					idx := 0
					for _, a := range ca {
						wa := sa.Coefs[a.mi][p] * a.norm
						for _, b := range cb {
							wab := wa * sb.Coefs[b.mi][q] * b.norm
							tmaxX, tmaxY, tmaxZ := a.lx+b.lx, a.ly+b.ly, a.lz+b.lz
							for _, c := range cc {
								wabc := wab * sc.Coefs[c.mi][r] * c.norm
								for _, d := range cd {
									w := wabc * sd.Coefs[d.mi][s] * d.norm * pref
									umaxX, umaxY, umaxZ := c.lx+d.lx, c.ly+d.ly, c.lz+d.lz
									sum := 0.0
									for t := 0; t <= tmaxX; t++ {
										ext := e1x[a.lx][b.lx][t]
										if ext == 0 {
											continue
										}
										for u := 0; u <= tmaxY; u++ {
											eyu := e1y[a.ly][b.ly][u]
											if eyu == 0 {
												continue
											}
											for v := 0; v <= tmaxZ; v++ {
												ezv := e1z[a.lz][b.lz][v]
												if ezv == 0 {
													continue
												}
												braW := ext * eyu * ezv
												ketSum := 0.0
												for tau := 0; tau <= umaxX; tau++ {
													ex2 := e2x[c.lx][d.lx][tau]
													if ex2 == 0 {
														continue
													}
													for nu := 0; nu <= umaxY; nu++ {
														ey2 := e2y[c.ly][d.ly][nu]
														if ey2 == 0 {
															continue
														}
														for phi := 0; phi <= umaxZ; phi++ {
															ez2 := e2z[c.lz][d.lz][phi]
															if ez2 == 0 {
																continue
															}
															sign := 1.0
															if (tau+nu+phi)&1 == 1 {
																sign = -1
															}
															ketSum += sign * ex2 * ey2 * ez2 *
																rt[rIndex(t+tau, u+nu, v+phi, ltot)]
														}
													}
												}
												sum += braW * ketSum
											}
										}
									}
									out[idx] += w * sum
									idx++
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// Tensor evaluates the complete two-electron integral tensor (ab|cd),
// dense, with no symmetry folding: tensor[((a*n+b)*n+c)*n+d]. It is
// evaluated once per Direct and shared by every later call, JK and
// Fock2e included; callers must not modify it.
func (e *Direct) Tensor() []float64 {
	if e.tensor == nil {
		e.tensor = e.evaluate()
	}
	return e.tensor
}

func (e *Direct) evaluate() []float64 {
	n := e.b.NumBF
	shells := e.b.Shells
	tensor := make([]float64, n*n*n*n)
	var buf []float64
	for i := range shells {
		for j := range shells {
			for k := range shells {
				for l := range shells {
					buf = e.ShellQuartet(i, j, k, l, buf)
					si, sj, sk, sl := &shells[i], &shells[j], &shells[k], &shells[l]
					idx := 0
					for fa := 0; fa < si.NumFuncs(); fa++ {
						for fb := 0; fb < sj.NumFuncs(); fb++ {
							for fc := 0; fc < sk.NumFuncs(); fc++ {
								for fd := 0; fd < sl.NumFuncs(); fd++ {
									a := si.BFOffset + fa
									b := sj.BFOffset + fb
									c := sk.BFOffset + fc
									d := sl.BFOffset + fd
									tensor[((a*n+b)*n+c)*n+d] = buf[idx]
									idx++
								}
							}
						}
					}
				}
			}
		}
	}
	return tensor
}

// JK builds the Coulomb and exchange matrices with no symmetry tricks at
// all: the full ERI tensor contracted directly with the densities by the
// textbook formulas J_ab = sum_cd dj_cd (ab|cd) and K_ab = sum_cd dk_cd
// (ac|bd).
func (e *Direct) JK(dj, dk *linalg.Matrix) (j, k *linalg.Matrix) {
	n := e.b.NumBF
	tensor := e.Tensor()
	j, k = linalg.NewSquare(n), linalg.NewSquare(n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			var sumJ, sumK float64
			for c := 0; c < n; c++ {
				for dd := 0; dd < n; dd++ {
					sumJ += dj.At(c, dd) * tensor[((a*n+b)*n+c)*n+dd]
					sumK += dk.At(c, dd) * tensor[((a*n+c)*n+b)*n+dd]
				}
			}
			j.Set(a, b, sumJ)
			k.Set(a, b, sumK)
		}
	}
	return j, k
}

// Fock2e is the dense restricted two-electron Fock matrix
// G_ab = sum_cd D_cd [(ab|cd) - (ac|bd)/2].
func (e *Direct) Fock2e(d *linalg.Matrix) *linalg.Matrix {
	g, k := e.JK(d, d)
	g.AxpyFrom(-0.5, k)
	return g
}

// hermiteE computes the 1D Hermite expansion coefficients E_t^{ij} for a
// primitive pair with exponents a (on A) and b (on B) along one axis,
// where xAB = Ax - Bx, indexed e[i][j][t] (Helgaker, Jørgensen, Olsen
// ch. 9):
//
//	E_0^{00}    = exp(-mu xAB^2)
//	E_t^{i+1,j} = E_{t-1}^{ij}/(2p) + xPA E_t^{ij} + (t+1) E_{t+1}^{ij}
//	E_t^{i,j+1} = E_{t-1}^{ij}/(2p) + xPB E_t^{ij} + (t+1) E_{t+1}^{ij}
func hermiteE(la, lb int, a, b, xAB float64) [][][]float64 {
	p := a + b
	xPA := -b / p * xAB
	xPB := a / p * xAB
	e := make([][][]float64, la+1)
	for i := range e {
		e[i] = make([][]float64, lb+1)
		for j := range e[i] {
			e[i][j] = make([]float64, i+j+1)
		}
	}
	e[0][0][0] = math.Exp(-a * b / p * xAB * xAB)
	get := func(i, j, t int) float64 {
		if t < 0 || t > i+j {
			return 0
		}
		return e[i][j][t]
	}
	for i := 0; i < la; i++ {
		for t := 0; t <= i+1; t++ {
			e[i+1][0][t] = get(i, 0, t-1)/(2*p) + xPA*get(i, 0, t) + float64(t+1)*get(i, 0, t+1)
		}
	}
	for i := 0; i <= la; i++ {
		for j := 0; j < lb; j++ {
			for t := 0; t <= i+j+1; t++ {
				e[i][j+1][t] = get(i, j, t-1)/(2*p) + xPB*get(i, j, t) + float64(t+1)*get(i, j, t+1)
			}
		}
	}
	return e
}

// hermiteR computes the Hermite Coulomb integrals R^0_{tuv}, t+u+v <= l,
// for exponent alpha and separation (x, y, z), indexed by rIndex:
//
//	R^n_{000}     = (-2 alpha)^n F_n(alpha r^2)
//	R^n_{t+1,u,v} = t R^{n+1}_{t-1,u,v} + x R^{n+1}_{tuv}   (etc. for u, v)
func hermiteR(l int, alpha, x, y, z float64) []float64 {
	fn := boys(l, alpha*(x*x+y*y+z*z))
	cur := make([]float64, (l+1)*(l+1)*(l+1))
	next := make([]float64, len(cur))
	for n := l; n >= 0; n-- {
		next, cur = cur, next
		clear(cur)
		cur[0] = math.Pow(-2*alpha, float64(n)) * fn[n]
		for total := 1; total <= l-n; total++ {
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

// rIndex maps (t, u, v) into the flat R cube for max order l.
func rIndex(t, u, v, l int) int { return (t*(l+1)+u)*(l+1) + v }

// boys returns F_0(t)..F_n(t), F_m(t) = int_0^1 u^{2m} exp(-t u^2) du:
// the convergent series for the highest order and the downward recursion
// below t = 30, and above it F_0 in closed form through erf with the
// upward recursion, which is stable there.
func boys(n int, t float64) []float64 {
	out := make([]float64, n+1)
	switch {
	case t < 1e-13:
		for m := range out {
			out[m] = 1 / float64(2*m+1)
		}
	case t < 30:
		// F_n(t) = exp(-t) sum_k (2t)^k / (2n+1)(2n+3)...(2n+2k+1)
		sum := 1 / float64(2*n+1)
		for term, k := sum, 1; term >= 1e-17*sum; k++ {
			term *= 2 * t / float64(2*n+2*k+1)
			sum += term
		}
		et := math.Exp(-t)
		out[n] = et * sum
		for m := n - 1; m >= 0; m-- {
			out[m] = (2*t*out[m+1] + et) / float64(2*m+1)
		}
	default:
		out[0] = 0.5 * math.Sqrt(math.Pi/t) * math.Erf(math.Sqrt(t))
		et := math.Exp(-t)
		for m := 0; m < n; m++ {
			out[m+1] = (float64(2*m+1)*out[m] - et) / (2 * t)
		}
	}
	return out
}

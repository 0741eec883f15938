package integrals

import (
	"math"

	"repro/internal/basis"
	"repro/internal/linalg"
)

// Engine evaluates integrals over a built basis. It is stateless apart
// from the basis reference, so one Engine can be shared by any number of
// goroutines; per-thread scratch is passed explicitly where needed.
type Engine struct {
	Basis *basis.Basis
}

// NewEngine returns an integral engine over b.
func NewEngine(b *basis.Basis) *Engine { return &Engine{Basis: b} }

// Overlap returns the AO overlap matrix S.
func (e *Engine) Overlap() *linalg.Matrix {
	return e.oneElectron(func(sa, sb *basis.Shell) []float64 {
		return e.overlapBlock(sa, sb)
	})
}

// Kinetic returns the kinetic energy matrix T.
func (e *Engine) Kinetic() *linalg.Matrix {
	return e.oneElectron(func(sa, sb *basis.Shell) []float64 {
		return e.kineticBlock(sa, sb)
	})
}

// Nuclear returns the nuclear attraction matrix V (negative definite
// contributions from every nucleus).
func (e *Engine) Nuclear() *linalg.Matrix {
	return e.oneElectron(func(sa, sb *basis.Shell) []float64 {
		return e.nuclearBlock(sa, sb)
	})
}

// CoreHamiltonian returns H = T + V.
func (e *Engine) CoreHamiltonian() *linalg.Matrix {
	h := e.Kinetic()
	h.AxpyFrom(1, e.Nuclear())
	return h
}

// oneElectron assembles a symmetric one-electron matrix from shell blocks.
func (e *Engine) oneElectron(block func(sa, sb *basis.Shell) []float64) *linalg.Matrix {
	n := e.Basis.NumBF
	m := linalg.NewSquare(n)
	shells := e.Basis.Shells
	for i := range shells {
		for j := 0; j <= i; j++ {
			sa, sb := &shells[i], &shells[j]
			blk := block(sa, sb)
			na, nb := sa.NumFuncs(), sb.NumFuncs()
			for fa := 0; fa < na; fa++ {
				for fb := 0; fb < nb; fb++ {
					v := blk[fa*nb+fb]
					m.Set(sa.BFOffset+fa, sb.BFOffset+fb, v)
					m.Set(sb.BFOffset+fb, sa.BFOffset+fa, v)
				}
			}
		}
	}
	return m
}

// shellComponents enumerates the (moment index, l, lx, ly, lz, norm) tuples
// of a shell in basis-function order.
type component struct {
	l, lx, ly, lz int
	mi            int     // moment index into Coefs
	norm          float64 // cartesian component normalization factor
}

func componentsOf(s *basis.Shell) []component {
	var out []component
	for mi, l := range s.Moments {
		for _, c := range basis.CartComponents(l) {
			out = append(out, component{
				l: l, lx: c[0], ly: c[1], lz: c[2], mi: mi,
				norm: basis.CartNormFactor(c[0], c[1], c[2]),
			})
		}
	}
	return out
}

// overlapBlock computes the na x nb overlap block between two shells.
func (e *Engine) overlapBlock(sa, sb *basis.Shell) []float64 {
	ca, cb := componentsOf(sa), componentsOf(sb)
	out := make([]float64, len(ca)*len(cb))
	la, lb := sa.MaxL(), sb.MaxL()
	ab := [3]float64{
		sa.Center[0] - sb.Center[0],
		sa.Center[1] - sb.Center[1],
		sa.Center[2] - sb.Center[2],
	}
	for p, ap := range sa.Exps {
		for q, bq := range sb.Exps {
			pp := ap + bq
			pref := math.Pow(math.Pi/pp, 1.5)
			ex := hermiteE(la, lb, ap, bq, ab[0])
			ey := hermiteE(la, lb, ap, bq, ab[1])
			ez := hermiteE(la, lb, ap, bq, ab[2])
			for ia, a := range ca {
				caw := sa.Coefs[a.mi][p] * a.norm
				for ib, b := range cb {
					w := caw * sb.Coefs[b.mi][q] * b.norm
					out[ia*len(cb)+ib] += w * pref *
						ex.at(a.lx, b.lx, 0) * ey.at(a.ly, b.ly, 0) * ez.at(a.lz, b.lz, 0)
				}
			}
		}
	}
	return out
}

// kineticBlock computes the kinetic energy block using the standard
// decomposition T = Tx Sy Sz + Sx Ty Sz + Sx Sy Tz with the 1D kinetic
// integrals expressed through overlaps of shifted angular momenta:
//
//	T_ij = -2 b^2 S_{i,j+2} + b(2j+1) S_{ij} - j(j-1)/2 S_{i,j-2}
func (e *Engine) kineticBlock(sa, sb *basis.Shell) []float64 {
	ca, cb := componentsOf(sa), componentsOf(sb)
	out := make([]float64, len(ca)*len(cb))
	la, lb := sa.MaxL(), sb.MaxL()
	ab := [3]float64{
		sa.Center[0] - sb.Center[0],
		sa.Center[1] - sb.Center[1],
		sa.Center[2] - sb.Center[2],
	}
	for p, ap := range sa.Exps {
		for q, bq := range sb.Exps {
			pp := ap + bq
			sqp := math.Sqrt(math.Pi / pp)
			// E tables with +2 headroom on the b side for the j+2 shifts.
			var et [3]hermE
			for ax := 0; ax < 3; ax++ {
				et[ax] = hermiteE(la, lb+2, ap, bq, ab[ax])
			}
			s1 := func(ax, i, j int) float64 {
				if j < 0 {
					return 0
				}
				return et[ax].at(i, j, 0) * sqp
			}
			t1 := func(ax, i, j int) float64 {
				v := -2 * bq * bq * s1(ax, i, j+2)
				v += bq * float64(2*j+1) * s1(ax, i, j)
				if j >= 2 {
					v -= 0.5 * float64(j) * float64(j-1) * s1(ax, i, j-2)
				}
				return v
			}
			for ia, a := range ca {
				caw := sa.Coefs[a.mi][p] * a.norm
				for ib, b := range cb {
					w := caw * sb.Coefs[b.mi][q] * b.norm
					tx := t1(0, a.lx, b.lx) * s1(1, a.ly, b.ly) * s1(2, a.lz, b.lz)
					ty := s1(0, a.lx, b.lx) * t1(1, a.ly, b.ly) * s1(2, a.lz, b.lz)
					tz := s1(0, a.lx, b.lx) * s1(1, a.ly, b.ly) * t1(2, a.lz, b.lz)
					out[ia*len(cb)+ib] += w * (tx + ty + tz)
				}
			}
		}
	}
	return out
}

// nuclearBlock computes the nuclear attraction block summed over all
// nuclei: V_ab = -sum_C Z_C (2 pi / p) sum_tuv E_tuv R_tuv(p, P - C).
func (e *Engine) nuclearBlock(sa, sb *basis.Shell) []float64 {
	ca, cb := componentsOf(sa), componentsOf(sb)
	out := make([]float64, len(ca)*len(cb))
	la, lb := sa.MaxL(), sb.MaxL()
	ltot := la + lb
	ab := [3]float64{
		sa.Center[0] - sb.Center[0],
		sa.Center[1] - sb.Center[1],
		sa.Center[2] - sb.Center[2],
	}
	atoms := e.Basis.Mol.Atoms
	rbuf := make([]float64, rBuf(ltot))
	for p, ap := range sa.Exps {
		for q, bq := range sb.Exps {
			pp := ap + bq
			px := (ap*sa.Center[0] + bq*sb.Center[0]) / pp
			py := (ap*sa.Center[1] + bq*sb.Center[1]) / pp
			pz := (ap*sa.Center[2] + bq*sb.Center[2]) / pp
			ex := hermiteE(la, lb, ap, bq, ab[0])
			ey := hermiteE(la, lb, ap, bq, ab[1])
			ez := hermiteE(la, lb, ap, bq, ab[2])
			pref := 2 * math.Pi / pp
			for _, at := range atoms {
				r := hermiteR(ltot, pp, px-at.Pos[0], py-at.Pos[1], pz-at.Pos[2], rbuf)
				zc := -float64(at.Z) * pref
				for ia, a := range ca {
					caw := sa.Coefs[a.mi][p] * a.norm
					for ib, b := range cb {
						w := caw * sb.Coefs[b.mi][q] * b.norm
						sum := 0.0
						for t := 0; t <= a.lx+b.lx; t++ {
							extv := ex.at(a.lx, b.lx, t)
							if extv == 0 {
								continue
							}
							for u := 0; u <= a.ly+b.ly; u++ {
								eyuv := ey.at(a.ly, b.ly, u)
								if eyuv == 0 {
									continue
								}
								for v := 0; v <= a.lz+b.lz; v++ {
									sum += extv * eyuv * ez.at(a.lz, b.lz, v) *
										r[rIndex(t, u, v, ltot)]
								}
							}
						}
						out[ia*len(cb)+ib] += zc * w * sum
					}
				}
			}
		}
	}
	return out
}

package integrals

import (
	"math"

	"repro/internal/basis"
	"repro/internal/linalg"
)

// Dipole returns the three electric-dipole integral matrices
// M_x, M_y, M_z with elements <a| r_c |b>, where r_c is the electron
// coordinate relative to the given origin (bohr). Combined with the
// density and the nuclear contribution they give the molecular dipole
// moment — one of the standard properties an SCF program reports.
//
// In the McMurchie-Davidson scheme the 1D moment integral about the
// Gaussian product center P is the t = 1 Hermite coefficient:
//
//	<a| x |b> = (E_1^{ij} + X_PO E_0^{ij}) sqrt(pi/p)
//
// with X_PO = Px - Ox the offset of P from the requested origin.
func (e *Engine) Dipole(origin [3]float64) [3]*linalg.Matrix {
	n := e.Basis.NumBF
	out := [3]*linalg.Matrix{linalg.NewSquare(n), linalg.NewSquare(n), linalg.NewSquare(n)}
	shells := e.Basis.Shells
	for i := range shells {
		for j := 0; j <= i; j++ {
			sa, sb := &shells[i], &shells[j]
			blk := e.dipoleBlock(sa, sb, origin)
			na, nb := sa.NumFuncs(), sb.NumFuncs()
			for ax := 0; ax < 3; ax++ {
				for fa := 0; fa < na; fa++ {
					for fb := 0; fb < nb; fb++ {
						v := blk[ax][fa*nb+fb]
						out[ax].Set(sa.BFOffset+fa, sb.BFOffset+fb, v)
						out[ax].Set(sb.BFOffset+fb, sa.BFOffset+fa, v)
					}
				}
			}
		}
	}
	return out
}

// dipoleBlock computes the three per-axis moment blocks for a shell pair.
func (e *Engine) dipoleBlock(sa, sb *basis.Shell, origin [3]float64) [3][]float64 {
	ca, cb := componentsOf(sa), componentsOf(sb)
	var out [3][]float64
	for ax := 0; ax < 3; ax++ {
		out[ax] = make([]float64, len(ca)*len(cb))
	}
	la, lb := sa.MaxL(), sb.MaxL()
	ab := [3]float64{
		sa.Center[0] - sb.Center[0],
		sa.Center[1] - sb.Center[1],
		sa.Center[2] - sb.Center[2],
	}
	for p, ap := range sa.Exps {
		for q, bq := range sb.Exps {
			pp := ap + bq
			sq := math.Sqrt(math.Pi / pp)
			var pc [3]float64 // P - origin per axis
			for ax := 0; ax < 3; ax++ {
				pc[ax] = (ap*sa.Center[ax]+bq*sb.Center[ax])/pp - origin[ax]
			}
			var et [3]hermE
			for ax := 0; ax < 3; ax++ {
				et[ax] = hermiteE(la, lb, ap, bq, ab[ax])
			}
			// 1D overlap and first-moment integrals per axis.
			s1 := func(ax, i, j int) float64 { return et[ax].at(i, j, 0) * sq }
			m1 := func(ax, i, j int) float64 {
				e1 := 0.0
				if i+j >= 1 {
					e1 = et[ax].at(i, j, 1)
				}
				return (e1 + pc[ax]*et[ax].at(i, j, 0)) * sq
			}
			for ia, a := range ca {
				caw := sa.Coefs[a.mi][p] * a.norm
				for ib, b := range cb {
					w := caw * sb.Coefs[b.mi][q] * b.norm
					l := [3][2]int{{a.lx, b.lx}, {a.ly, b.ly}, {a.lz, b.lz}}
					for ax := 0; ax < 3; ax++ {
						v := w
						for k := 0; k < 3; k++ {
							if k == ax {
								v *= m1(k, l[k][0], l[k][1])
							} else {
								v *= s1(k, l[k][0], l[k][1])
							}
						}
						out[ax][ia*len(cb)+ib] += v
					}
				}
			}
		}
	}
	return out
}

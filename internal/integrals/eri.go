package integrals

import "math"

// ShellQuartet computes the full block of two-electron repulsion integrals
// (ab|cd) in chemists' notation for shells with indices (si, sj, sk, sl),
// returning values in basis-function order with layout
// out[((fa*nb+fb)*nc+fc)*nd+fd]. The slice is reallocated when too small.
//
// This is the eri() call of the paper's Algorithms 1-3: the innermost,
// dominant cost of the whole Hartree-Fock procedure.
func (e *Engine) ShellQuartet(si, sj, sk, sl int, out []float64) []float64 {
	shells := e.Basis.Shells
	sa, sb, sc, sd := &shells[si], &shells[sj], &shells[sk], &shells[sl]
	ca, cb := componentsOf(sa), componentsOf(sb)
	cc, cd := componentsOf(sc), componentsOf(sd)
	na, nb, nc, nd := len(ca), len(cb), len(cc), len(cd)
	need := na * nb * nc * nd
	if cap(out) < need {
		out = make([]float64, need)
	}
	out = out[:need]
	for i := range out {
		out[i] = 0
	}

	la, lb := sa.MaxL(), sb.MaxL()
	lc, ld := sc.MaxL(), sd.MaxL()
	lbra, lket := la+lb, lc+ld
	ltot := lbra + lket

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

// ERIValue computes a single primitive-style contracted integral for the
// first basis function of each shell quartet; used by validation tests on
// s-only systems.
func (e *Engine) ERIValue(si, sj, sk, sl int) float64 {
	blk := e.ShellQuartet(si, sj, sk, sl, nil)
	return blk[0]
}

// QuartetSource produces ERI shell-quartet blocks. The precomputed
// PairCache is the one production source; the direct Engine implements
// it too and stays as the independent oracle the tests, the dense ERI
// tensor and cmd/calibrate evaluate through.
type QuartetSource interface {
	ShellQuartet(i, j, k, l int, out []float64) []float64
}

package integrals

import (
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
// with X_PO = Px - Ox the offset of P from the requested origin. They are
// the moment terms of the one-electron walk.
func (e *Engine) Dipole(origin [3]float64) [3]*linalg.Matrix {
	n := e.Basis.NumBF
	out := [3]*linalg.Matrix{linalg.NewSquare(n), linalg.NewSquare(n), linalg.NewSquare(n)}
	e.oneElectron(7<<termM, origin, func(sa, sb *basis.Shell, blk *[nTerms][]float64) {
		for x, m := range out {
			setBlock(m, sa, sb, blk[termM+x])
		}
	})
	return out
}

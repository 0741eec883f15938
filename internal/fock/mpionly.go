package fock

import (
	"repro/internal/ddi"
	"repro/internal/integrals"
	"repro/internal/linalg"
)

// MPIOnlyBuild is the paper's Algorithm 1, the stock GAMESS SCF
// parallelization: every rank holds private copies of the density and the
// Fock accumulator; the dynamic load balancer hands out combined (i, j)
// shell-pair indices; each rank runs the full (k, l) loops for its pairs;
// a global sum reduces the Fock matrix at the end.
//
// Call from inside mpi.Run on every rank. The channel densities are
// replicated; the returned matrices (one per channel) are the complete
// two-electron Fock, identical on all ranks.
func MPIOnlyBuild(dx *ddi.Context, eng *integrals.Engine,
	sch *integrals.Schwarz, chans []Channel, cfg Config) ([]*linalg.Matrix, Stats) {
	w := newWalker(dx, eng, sch, cfg)
	var gs [][]float64
	gs, w.chans = replicated(w.lay, blockDensities(w.lay, chans))
	// The private accumulator always rides the closing gsumf, so a
	// NaN-poison or bit-flip landed there reaches every rank's Fock.
	w.dlbPairs(&gs[0])
	return reduce(dx, w.lay, gs), w.st
}

// reduce closes a replicated build: the 2e-Fock matrix reduction over MPI
// ranks (Algorithm 1 line 16, Algorithm 2 line 23, Algorithm 3 line 38)
// of each blocked accumulator, then closeBuild.
func reduce(dx *ddi.Context, lay *blocking, gs [][]float64) []*linalg.Matrix {
	for _, g := range gs {
		dx.GSumF(g)
	}
	return closeBuild(lay, gs)
}

// closeBuild forms each channel's F = G + Gᵀ from its blocked
// accumulator.
func closeBuild(lay *blocking, gs [][]float64) []*linalg.Matrix {
	fs := make([]*linalg.Matrix, len(gs))
	for c, g := range gs {
		fs[c] = lay.finalize(g)
	}
	return fs
}

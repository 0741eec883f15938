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
// Construct it inside mpi.Run on every rank. The channel densities are
// replicated; Build returns the complete two-electron Fock matrices (one
// per channel), identical on all ranks.
func MPIOnlyBuild(dx *ddi.Context, eng *integrals.Engine,
	sch *integrals.Schwarz, cfg Config) *Builder {
	b := newBuilder(dx, eng, cfg.Quartets, sch, DefaultTau, 1)
	// The private accumulator always rides the closing gsumf, so a
	// NaN-poison or bit-flip landed there reaches every rank's Fock.
	b.walk = func() { b.lanes[0].dlbPairs(&b.gs[0][0]) }
	return b
}

// reduce closes a replicated build: the 2e-Fock matrix reduction over MPI
// ranks (Algorithm 1 line 16, Algorithm 2 line 23, Algorithm 3 line 38)
// of lane 0's blocked accumulators — none in the serial build — then
// closeBuild.
func (b *Builder) reduce() []*linalg.Matrix {
	for _, g := range b.gs[0] {
		if b.dx != nil {
			b.dx.GSumF(g)
		}
	}
	return closeBuild(b.lay, b.gs[0])
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

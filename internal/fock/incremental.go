package fock

import (
	"math"

	"repro/internal/integrals"
	"repro/internal/linalg"
)

// Incremental Fock construction (Häser & Ahlrichs): instead of rebuilding
// G(D) from scratch each SCF iteration, build G(dD) for the density
// CHANGE and add it to the previous G. Combined with density-weighted
// screening — skip a quartet when Q_ij Q_kl max|dD| is below threshold —
// the work per iteration shrinks as the SCF converges, because dD -> 0.
// This is a standard direct-SCF refinement orthogonal to the paper's
// parallelization (each incremental build still runs through the same
// quartet loops and could use any of Algorithms 1-3).

// DensityScreenedBuild is SerialBuild with the additional density-weighted
// test |Q_ij Q_kl| * dmax < tau, where dmax bounds the density elements a
// quartet can touch (the max over its six shell-block pairs).
func DensityScreenedBuild(eng *integrals.Engine, sch *integrals.Schwarz,
	d *linalg.Matrix, tau float64) (*linalg.Matrix, Stats) {
	w := serialWalker(eng, eng, sch, tau)
	w.dmax = shellPairDmax(eng, d)
	g, stats := serial(w, RHF(d.At))
	return g[0], stats
}

// shellPairDmax returns max |D_ab| over each shell block pair (packed
// triangular over shells).
func shellPairDmax(eng *integrals.Engine, d *linalg.Matrix) []float64 {
	shells := eng.Basis.Shells
	ns := len(shells)
	out := make([]float64, ns*(ns+1)/2)
	for i := 0; i < ns; i++ {
		si := &shells[i]
		for j := 0; j <= i; j++ {
			sj := &shells[j]
			m := 0.0
			for a := si.BFOffset; a < si.BFOffset+si.NumFuncs(); a++ {
				for b := sj.BFOffset; b < sj.BFOffset+sj.NumFuncs(); b++ {
					if v := math.Abs(d.At(a, b)); v > m {
						m = v
					}
				}
			}
			out[i*(i+1)/2+j] = m
		}
	}
	return out
}

// IncrementalBuilder wraps the density-screened serial build into an
// SCF-compatible builder that computes G(dD) each iteration and
// accumulates. Reset clears the history (e.g. after a basis change).
type IncrementalBuilder struct {
	eng   *integrals.Engine
	sch   *integrals.Schwarz
	tau   float64
	prevD *linalg.Matrix
	prevG *linalg.Matrix
	// RebuildEvery forces a full (non-incremental) rebuild every k
	// iterations to stop error accumulation; 0 means every 20.
	RebuildEvery int
	iter         int
}

// NewIncrementalBuilder returns an incremental Fock builder.
func NewIncrementalBuilder(eng *integrals.Engine, sch *integrals.Schwarz, tau float64) *IncrementalBuilder {
	if tau == 0 {
		tau = DefaultTau
	}
	return &IncrementalBuilder{eng: eng, sch: sch, tau: tau}
}

// Build computes the two-electron Fock matrix for d.
func (ib *IncrementalBuilder) Build(d *linalg.Matrix) (*linalg.Matrix, Stats) {
	ib.iter++
	rebuild := ib.RebuildEvery
	if rebuild <= 0 {
		rebuild = 20
	}
	if ib.prevD == nil || ib.iter%rebuild == 0 {
		g, stats := DensityScreenedBuild(ib.eng, ib.sch, d, ib.tau)
		ib.prevD = d.Clone()
		ib.prevG = g.Clone()
		return g, stats
	}
	delta := d.Clone()
	delta.AxpyFrom(-1, ib.prevD)
	dg, stats := DensityScreenedBuild(ib.eng, ib.sch, delta, ib.tau)
	g := ib.prevG.Clone()
	g.AxpyFrom(1, dg)
	ib.prevD = d.Clone()
	ib.prevG = g.Clone()
	return g, stats
}

// Reset forgets the accumulated state.
func (ib *IncrementalBuilder) Reset() {
	ib.prevD, ib.prevG, ib.iter = nil, nil, 0
}

package fock

import (
	"repro/internal/integrals"
	"repro/internal/linalg"
)

// SerialBuild constructs the restricted two-electron Fock matrix on one
// thread using the canonical symmetry-unique quartet loops with Schwarz
// screening. It is the correctness reference for all parallel variants
// and the single-core baseline of the benchmarks.
func SerialBuild(eng *integrals.Engine, sch *integrals.Schwarz,
	d *linalg.Matrix, tau float64) (*linalg.Matrix, Stats) {
	g, stats := SerialBuildN(eng, eng, sch, RHF(d.At), tau)
	return g[0], stats
}

// SerialBuildN is SerialBuild for any channel list and ERI source (eng
// itself for direct evaluation): one sweep, one Fock matrix per channel.
func SerialBuildN(eng *integrals.Engine, src integrals.QuartetSource, sch *integrals.Schwarz,
	chans []Channel, tau float64) ([]*linalg.Matrix, Stats) {
	return serial(serialWalker(eng, src, sch, tau), chans)
}

// serialWalker is a walker with no runtime under it: the static sweep on
// the calling thread, ERI blocks from src.
func serialWalker(eng *integrals.Engine, src integrals.QuartetSource,
	sch *integrals.Schwarz, tau float64) *walker {
	return &walker{shells: eng.Basis.Shells, n: eng.Basis.NumBF, src: src, sch: sch, tau: tau}
}

// serial runs w's static sweep into fresh replicated accumulators.
func serial(w *walker, chans []Channel) ([]*linalg.Matrix, Stats) {
	var accs []*linalg.Matrix
	accs, w.chans = replicated(w.n, chans)
	w.sweep()
	for _, acc := range accs {
		Finalize(acc)
	}
	return accs, w.st
}

// ReferenceJK builds the Coulomb and exchange matrices with no symmetry
// tricks at all: the full ERI tensor contracted directly with the
// densities by the textbook formulas J_ab = sum_cd dj_cd (ab|cd) and
// K_ab = sum_cd dk_cd (ac|bd). N^4 in memory — the oracle the
// conformance tests compare every preset against, on small molecules
// only.
func ReferenceJK(eng *integrals.Engine, dj, dk *linalg.Matrix) (j, k *linalg.Matrix) {
	n := eng.Basis.NumBF
	tensor := eng.FullERITensor()
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

// ReferenceFock2e is the dense restricted oracle
// G_ab = sum_cd D_cd [(ab|cd) - (ac|bd)/2].
func ReferenceFock2e(eng *integrals.Engine, d *linalg.Matrix) *linalg.Matrix {
	g, k := ReferenceJK(eng, d, d)
	g.AxpyFrom(-0.5, k)
	return g
}

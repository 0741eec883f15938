package fock

import (
	"repro/internal/integrals"
	"repro/internal/linalg"
)

// SerialBuildN constructs the two-electron Fock matrices of chans on one
// thread: the canonical symmetry-unique quartet loops with Schwarz
// screening, ERI blocks from src, one Fock matrix per channel. It is the
// serial plan's build and the correctness reference of every parallel
// preset.
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

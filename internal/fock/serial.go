package fock

import "repro/internal/integrals"

// SerialBuildN is the builder of the serial plan and the correctness
// reference of every parallel preset: the canonical symmetry-unique
// quartet loops with Schwarz screening at tau, on the calling thread with
// no runtime under it, ERI blocks from src, one Fock matrix per channel.
func SerialBuildN(eng *integrals.Engine, src integrals.QuartetSource, sch *integrals.Schwarz,
	tau float64) *Builder {
	b := newBuilder(nil, eng, src, sch, tau, 1)
	b.walk = b.lanes[0].sweep
	return b
}

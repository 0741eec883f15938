package integrals

import "repro/internal/linalg"

var fmaLanes = laneBody{name: "fma", setup: setup4FMA, quartet: quartet4FMA}

func init() {
	if linalg.HasAVXFMA() {
		lanes = fmaLanes
	}
}

// The assembly reads rStep, laneTerm, primBatch, hermIndex and eriScratch
// at fixed offsets, and the Boys table by its stride and node count
// (TestLaneLayout).

//go:noescape
func setup4FMA(fn []float64, l int, p float64, c *[3]float64, kb *primBatch, d *[4][4]float64, pref *[4]float64, table []float64)

//go:noescape
func quartet4FMA(blk []float64, bra, ket []primBatch, tail *primBatch, l, lb, ncd int, x *hermIndex, s *eriScratch)

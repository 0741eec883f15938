package distmat

import (
	"math"

	"repro/internal/linalg"
)

func init() {
	if linalg.HasAVXFMA() {
		mismatchBodies = append(mismatchBodies, mismatchBody{"avx", vectorMismatch(8, mismatchAVX)})
	}
	if linalg.HasAVX512() {
		mismatchBodies = append(mismatchBodies, mismatchBody{"avx512", vectorMismatch(16, mismatchAVX512)})
	}
	parityMismatch = mismatchBodies[len(mismatchBodies)-1].f
}

// mismatchConsts are what the vector bodies broadcast: the predicate's
// two tolerances, the largest finite float64 and the sign bit.
var mismatchConsts = [4]float64{abftAbsTol, abftRelTol, math.MaxFloat64, math.Copysign(0, -1)}

// vectorMismatch runs kernel over the largest multiple of width (a power
// of two) of the elements and mismatchGo over the rest.
func vectorMismatch(width int, kernel func(fresh, stored []float64, k *[4]float64) bool) func(fresh, stored []float64) bool {
	return func(fresh, stored []float64) bool {
		stored = stored[:len(fresh)]
		n := len(fresh) &^ (width - 1)
		return n > 0 && kernel(fresh[:n], stored[:n], &mismatchConsts) || mismatchGo(fresh[n:], stored[n:])
	}
}

// mismatchAVX evaluates mismatchGo's predicate on ymm vectors, 8
// elements a step; len(fresh) is a positive multiple of 8 and stored is
// as long.
//
//go:noescape
func mismatchAVX(fresh, stored []float64, k *[4]float64) bool

// mismatchAVX512 evaluates mismatchGo's predicate on zmm vectors, 16
// elements a step; len(fresh) is a positive multiple of 16 and stored is
// as long.
//
//go:noescape
func mismatchAVX512(fresh, stored []float64, k *[4]float64) bool

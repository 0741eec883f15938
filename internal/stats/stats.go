// Package stats holds the parallel-efficiency arithmetic the benchmark
// harness (bench/) reports.
package stats

import "math"

// ParallelEfficiency returns the efficiency (0..1] of time t on p units
// relative to baseline time tBase on pBase units.
func ParallelEfficiency(tBase float64, pBase int, t float64, p int) float64 {
	if t <= 0 || p <= 0 {
		return math.NaN()
	}
	return tBase * float64(pBase) / (t * float64(p))
}

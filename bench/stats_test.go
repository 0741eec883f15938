package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each input, from CPython.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 38},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5.1, 4.9, 5.0, 5.3, 4.8, 5.2, 5.05, 4.95, 5.15, 5.25}, 4.9375, 5.2125},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if median([]float64{4, 1, 3}) != 3 || median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("median is wrong")
	}
}

// The percentile rule: report the highest percentile with at least ten
// samples beyond it, else the median only.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{5, 90, false}, {99, 90, false}, {100, 90, true}, {199, 95, false}, {200, 95, true},
		{999, 99, false}, {1000, 99, true},
	} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if !tailSupported(750, 95) { // the issue's sizing: 750 misses leave 37 beyond p95
		t.Error("750 samples must support p95")
	}
	if tailSupported(150, 95) {
		t.Error("150 samples leave only 7 beyond p95")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 100); got != 100 {
		t.Errorf("p100 of 1..100 = %v, want 100", got)
	}
}

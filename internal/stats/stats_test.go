package stats

import (
	"math"
	"testing"
)

func TestParallelEfficiency(t *testing.T) {
	// Perfect scaling: 100s on 4 -> 25s on 16.
	if e := ParallelEfficiency(100, 4, 25, 16); math.Abs(e-1) > 1e-12 {
		t.Fatalf("eff = %v", e)
	}
	if e := ParallelEfficiency(100, 4, 50, 16); math.Abs(e-0.5) > 1e-12 {
		t.Fatalf("eff = %v", e)
	}
	if !math.IsNaN(ParallelEfficiency(100, 4, 0, 16)) {
		t.Fatal("zero time should be NaN")
	}
}

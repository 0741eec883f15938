package ddi

import (
	"math"
	"testing"
)

func TestEWMAConverges(t *testing.T) {
	var e EWMA
	if e.Value() != 0 || e.Count() != 0 {
		t.Fatal("zero value not empty")
	}
	e.Observe(100)
	if e.Value() != 100 {
		t.Fatalf("first sample should initialize directly, got %v", e.Value())
	}
	for i := 0; i < 50; i++ {
		e.Observe(400)
	}
	if math.Abs(e.Value()-400) > 1 {
		t.Fatalf("EWMA did not converge to sustained level: %v", e.Value())
	}
	if e.Count() != 51 {
		t.Fatalf("count = %d, want 51", e.Count())
	}
}

func TestMedian(t *testing.T) {
	if m := Median(nil); m != 0 {
		t.Fatalf("empty median = %v", m)
	}
	if m := Median([]float64{0, -1, 5}); m != 5 {
		t.Fatalf("median should ignore non-positive entries, got %v", m)
	}
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v, want 2", m)
	}
	if m := Median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("even median = %v, want 2.5", m)
	}
}

func TestFlagStragglers(t *testing.T) {
	ewma := []float64{10, 11, 45, 9}
	counts := []int64{5, 5, 5, 5}
	got := FlagStragglers(ewma, counts, 2, 3)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("flagged = %v, want [2]", got)
	}

	// Below the sample floor: no flags, even for a huge EWMA.
	counts[2] = 2
	if got := FlagStragglers(ewma, counts, 2, 3); got != nil {
		t.Fatalf("underspampled rank flagged: %v", got)
	}

	// A single qualified rank is its own median — never flagged.
	if got := FlagStragglers([]float64{50}, []int64{9}, 2, 3); got != nil {
		t.Fatalf("lone rank flagged: %v", got)
	}

	// Uniform latencies: nobody exceeds k× median.
	if got := FlagStragglers([]float64{10, 10, 10, 10}, []int64{9, 9, 9, 9}, 2, 3); got != nil {
		t.Fatalf("uniform ranks flagged: %v", got)
	}

	// The median must resist the straggler's own pull: 2 slow of 4 is
	// still flagged because the median sits on the fast side boundary.
	got = FlagStragglers([]float64{10, 10, 100, 100}, []int64{9, 9, 9, 9}, 1.5, 3)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("flagged = %v, want [2 3]", got)
	}
}

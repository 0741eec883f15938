package linalg

import "testing"

// Property tests for PackedIndex, the canonical shell-pair index of the
// simulated workload (internal/simulate).

// TestPackedPropertyIndexMonotonic: enumerating the lower triangle in
// canonical row-major order (i outer, j <= i inner) must hit PackedIndex
// values 0, 1, 2, ... with no gaps and no reordering — the contiguity
// the workload model's closed-form pair sums rely on.
func TestPackedPropertyIndexMonotonic(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 24, 61} {
		next := 0
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if idx := PackedIndex(i, j); idx != next {
					t.Fatalf("n=%d: PackedIndex(%d,%d) = %d, want %d (monotone walk broken)",
						n, i, j, idx, next)
				}
				next++
			}
		}
		if next != n*(n+1)/2 {
			t.Fatalf("n=%d: walk covered %d slots, want %d", n, next, n*(n+1)/2)
		}
	}
}

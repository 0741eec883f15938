package integrals

import (
	"math"
	"testing"
	"testing/quick"
)

// BoysSingle returns F_n(t) by itself.
func BoysSingle(n int, t float64) float64 {
	buf := make([]float64, n+1)
	Boys(n, t, buf)
	return buf[n]
}

// referenceBoys computes F_n(t) by adaptive Simpson quadrature of the
// defining integral; slow but independent of the production code paths.
func referenceBoys(n int, t float64) float64 {
	f := func(u float64) float64 { return math.Pow(u, float64(2*n)) * math.Exp(-t*u*u) }
	const steps = 20000
	h := 1.0 / steps
	sum := f(0) + f(1)
	for i := 1; i < steps; i++ {
		x := float64(i) * h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3
}

func TestBoysZeroArgument(t *testing.T) {
	out := make([]float64, 6)
	Boys(5, 0, out)
	for m := 0; m <= 5; m++ {
		want := 1.0 / float64(2*m+1)
		if math.Abs(out[m]-want) > 1e-15 {
			t.Fatalf("F_%d(0) = %v want %v", m, out[m], want)
		}
	}
}

func TestBoysF0ClosedForm(t *testing.T) {
	// F_0(t) = sqrt(pi/t)/2 * erf(sqrt(t))
	for _, tv := range []float64{0.1, 0.5, 1, 2, 5, 10, 20, 34, 36, 50, 100} {
		want := 0.5 * math.Sqrt(math.Pi/tv) * math.Erf(math.Sqrt(tv))
		got := BoysSingle(0, tv)
		if math.Abs(got-want) > 1e-13 {
			t.Fatalf("F_0(%v) = %v want %v", tv, got, want)
		}
	}
}

func TestBoysAgainstQuadrature(t *testing.T) {
	for _, n := range []int{0, 1, 2, 4, 8} {
		for _, tv := range []float64{0.05, 0.8, 3.0, 12.0, 33.0, 40.0} {
			want := referenceBoys(n, tv)
			got := BoysSingle(n, tv)
			if math.Abs(got-want) > 1e-10 {
				t.Fatalf("F_%d(%v) = %v want %v", n, tv, got, want)
			}
		}
	}
}

func TestBoysRecurrenceConsistency(t *testing.T) {
	// F_{m+1} = ((2m+1) F_m - exp(-t)) / (2t) must hold across the regime
	// boundaries.
	out := make([]float64, 10)
	for _, tv := range []float64{0.3, 5, 34.9, 35.1, 80} {
		Boys(9, tv, out)
		et := math.Exp(-tv)
		for m := 0; m < 9; m++ {
			want := (float64(2*m+1)*out[m] - et) / (2 * tv)
			if math.Abs(out[m+1]-want) > 1e-11*math.Max(1, out[m]) {
				t.Fatalf("recurrence broken at t=%v m=%d: %v vs %v", tv, m, out[m+1], want)
			}
		}
	}
}

func TestBoysMonotoneInOrder(t *testing.T) {
	// F_m(t) decreases with m for fixed t > 0.
	f := func(seed uint16) bool {
		tv := float64(seed)/65535*60 + 1e-6
		out := make([]float64, 12)
		Boys(11, tv, out)
		for m := 0; m < 11; m++ {
			if out[m+1] > out[m] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBoysPositive(t *testing.T) {
	f := func(seed uint16) bool {
		tv := float64(seed) / 65535 * 200
		out := make([]float64, 9)
		Boys(8, tv, out)
		for _, v := range out {
			if v <= 0 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBoysPanicsOnHugeOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Boys(maxBoysOrder+1, 1.0, make([]float64, maxBoysOrder+2))
}

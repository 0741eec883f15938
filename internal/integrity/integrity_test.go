package integrity

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// TestSingleBitFlipAlwaysChangesChecksum is the property the verified
// transport rests on: for payloads of several lengths, flipping ANY
// single bit of ANY element changes the Fletcher-64 checksum. The sweep
// is exhaustive over bit positions and elements for small payloads and
// sampled for larger ones.
func TestSingleBitFlipAlwaysChangesChecksum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 7, 64, 1830} {
		base := make([]float64, n)
		for i := range base {
			base[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
		}
		ref := ChecksumPayload(base, nil)
		idxs := []int{0, n - 1, n / 2}
		if n <= 8 {
			idxs = idxs[:0]
			for i := 0; i < n; i++ {
				idxs = append(idxs, i)
			}
		}
		for _, i := range idxs {
			for b := 0; b < 64; b++ {
				flipped := append([]float64(nil), base...)
				FlipFloatBit(flipped, i, b)
				if got := ChecksumPayload(flipped, nil); got == ref {
					t.Fatalf("n=%d: flip of bit %d of element %d not detected", n, b, i)
				}
			}
		}
	}
}

// TestChecksumIntPayloadBitFlips covers the int-payload half of framing.
func TestChecksumIntPayloadBitFlips(t *testing.T) {
	base := []int{0, 1, -5, 1 << 40, 123456789}
	ref := ChecksumPayload(nil, base)
	for i := range base {
		for b := 0; b < 64; b++ {
			flipped := append([]int(nil), base...)
			flipped[i] ^= 1 << uint(b)
			if ChecksumPayload(nil, flipped) == ref {
				t.Fatalf("int flip bit %d of element %d not detected", b, i)
			}
		}
	}
}

// TestChecksumLengthAndOrderSensitivity: truncation, extension, swaps and
// float/int boundary confusion must all change the sum.
func TestChecksumLengthAndOrderSensitivity(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	ref := ChecksumPayload(a, nil)
	if ChecksumPayload(a[:3], nil) == ref {
		t.Fatal("truncation not detected")
	}
	if ChecksumPayload(append(append([]float64(nil), a...), 0), nil) == ref {
		t.Fatal("zero-extension not detected")
	}
	swapped := []float64{2, 1, 3, 4}
	if ChecksumPayload(swapped, nil) == ref {
		t.Fatal("reorder not detected (checksum must be position-sensitive)")
	}
	if ChecksumPayload(nil, []int{4611686018427387904}) == ChecksumPayload([]float64{2}, nil) {
		// 2.0's bit pattern as an int vs as a float: lengths are folded in,
		// so the two payload shapes must not collide.
		t.Fatal("float/int payload confusion not detected")
	}
}

func TestChecksumStreamingMatchesOneShot(t *testing.T) {
	vals := make([]float64, 100000) // crosses the deferred-reduction boundary
	for i := range vals {
		vals[i] = float64(i) * 1.25
	}
	var f Fletcher64
	f.AddUint64(uint64(len(vals)))
	f.AddUint64(0)
	for _, v := range vals {
		f.AddFloat64(v)
	}
	if f.Sum() != ChecksumPayload(vals, nil) {
		t.Fatal("streaming and one-shot checksums disagree")
	}
	// Sum must be idempotent.
	if f.Sum() != f.Sum() {
		t.Fatal("Sum is not idempotent")
	}
}

func TestCorruptionPrimitivesClamp(t *testing.T) {
	FlipFloatBit(nil, 0, 0) // must not panic
	PoisonNaN(nil, 3)
	FlipByteBit(nil, 1, 2)
	v := []float64{1}
	FlipFloatBit(v, 99, 99)
	if v[0] == 1 {
		t.Fatal("clamped flip should still corrupt")
	}
	w := []float64{1, 2}
	PoisonNaN(w, -5)
	if !math.IsNaN(w[0]) {
		t.Fatal("clamped poison should land on element 0")
	}
}

func TestCheckFinite(t *testing.T) {
	m := linalg.NewSquare(4)
	if err := CheckFinite("fock", m); err != nil {
		t.Fatal(err)
	}
	m.Set(2, 3, math.NaN())
	err := CheckFinite("fock", m)
	if err == nil {
		t.Fatal("NaN not detected")
	}
	ve, ok := err.(*ValidationError)
	if !ok || ve.Kind != CheckNonFinite {
		t.Fatalf("wrong error: %v", err)
	}
	m.Set(2, 3, math.Inf(-1))
	if CheckFinite("fock", m) == nil {
		t.Fatal("-Inf not detected")
	}
}

func TestCheckSymmetric(t *testing.T) {
	m := linalg.NewSquare(5)
	for i := 0; i < 5; i++ {
		for j := 0; j <= i; j++ {
			m.Set(i, j, float64(i+j))
			m.Set(j, i, float64(i+j))
		}
	}
	if err := CheckSymmetric("fock", m, 1e-10); err != nil {
		t.Fatal(err)
	}
	m.Add(3, 1, 1e-3) // one-triangle write
	err := CheckSymmetric("fock", m, 1e-10)
	if err == nil {
		t.Fatal("asymmetry not detected")
	}
	if ve := err.(*ValidationError); ve.Kind != CheckAsymmetric || ve.Drift < 0.9e-3 {
		t.Fatalf("wrong classification: %+v", ve)
	}
}

// identity returns the n x n identity matrix.
func identity(n int) *linalg.Matrix {
	m := linalg.NewSquare(n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

func TestCheckElectronCount(t *testing.T) {
	// Orthonormal basis (S = I), D = diag(2, 2, 0): 4 electrons.
	s := identity(3)
	d := linalg.NewSquare(3)
	d.Set(0, 0, 2)
	d.Set(1, 1, 2)
	if err := CheckElectronCount(d, s, 4, 1e-8); err != nil {
		t.Fatal(err)
	}
	if err := CheckElectronCount(d, s, 6, 1e-8); err == nil {
		t.Fatal("electron-count drift not detected")
	}
	d.Set(1, 1, math.NaN())
	if err := CheckElectronCount(d, s, 4, 1e-8); err == nil {
		t.Fatal("NaN trace not detected")
	}
}

func TestCheckFockAndDensityComposites(t *testing.T) {
	s := identity(2)
	d := linalg.NewSquare(2)
	d.Set(0, 0, 2)
	if err := CheckDensity(d, s, 2, 1e-8, 1e-6); err != nil {
		t.Fatal(err)
	}
	g := linalg.NewSquare(2)
	if err := CheckFock(g, 1e-8); err != nil {
		t.Fatal(err)
	}
	PoisonNaN(g.Data, 1)
	if CheckFock(g, 1e-8) == nil {
		t.Fatal("poisoned Fock passed validation")
	}
}

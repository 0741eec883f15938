package scf

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/integrals"
	"repro/internal/integrals/oracle"
	"repro/internal/linalg"
	"repro/internal/molecule"
)

// denseMP2 is the textbook reference: the oracle's full N^4 tensor, four
// O(N^5) quarter transformations to (pq|rs), then the energy sums.
func denseMP2(eng *integrals.Engine, ref *Result) *MP2Result {
	n := eng.Basis.NumBF
	nocc := eng.Basis.Mol.NumElectrons() / 2
	mo := oracle.New(eng.Basis).Tensor()
	for axis := 0; axis < 4; axis++ {
		mo = quarterTransform(mo, ref.C, n, axis)
	}
	at := func(p, q, r, s int) float64 { return mo[((p*n+q)*n+r)*n+s] }
	eps := ref.OrbitalEnergies
	res := &MP2Result{}
	for i := 0; i < nocc; i++ {
		for j := 0; j < nocc; j++ {
			for a := nocc; a < n; a++ {
				for b := nocc; b < n; b++ {
					iajb, ibja := at(i, a, j, b), at(i, b, j, a)
					denom := eps[i] + eps[j] - eps[a] - eps[b]
					res.OppositeSpin += iajb * iajb / denom
					res.SameSpin += iajb * (iajb - ibja) / denom
				}
			}
		}
	}
	res.CorrelationEnergy = res.OppositeSpin + res.SameSpin
	return res
}

// quarterTransform contracts MO coefficients into one index (axis 0..3)
// of a row-major (p, q, r, s) tensor: out[..., p, ...] = sum_mu C[mu][p]
// t[..., mu, ...].
func quarterTransform(t []float64, c *linalg.Matrix, n, axis int) []float64 {
	out := make([]float64, len(t))
	st := [4]int{n * n * n, n * n, n, 1}[axis]
	for base := range t {
		if (base/st)%n != 0 {
			continue
		}
		for p := 0; p < n; p++ {
			sum := 0.0
			for mu := 0; mu < n; mu++ {
				sum += c.At(mu, p) * t[base+mu*st]
			}
			out[base+p*st] = sum
		}
	}
	return out
}

// TestMP2MatchesDenseOracle holds the production MP2 — PairCache
// integrals, one ket shell pair at a time — to the dense oracle
// transformation, with d shells and with an odd count of shells per atom.
func TestMP2MatchesDenseOracle(t *testing.T) {
	for _, tc := range []struct {
		mol *molecule.Molecule
		set string
	}{
		{molecule.Water(), "6-31g(d)"},
		{molecule.Ammonia(), "sto-3g"},
	} {
		res, eng := serialSCF(t, tc.mol, tc.set, Options{ConvDens: 1e-10, ConvEnergy: 1e-12})
		got, err := RunMP2(eng, res)
		if err != nil {
			t.Fatal(err)
		}
		want := denseMP2(eng, res)
		for _, v := range [][3]float64{
			{got.CorrelationEnergy, want.CorrelationEnergy},
			{got.SameSpin, want.SameSpin},
			{got.OppositeSpin, want.OppositeSpin},
		} {
			if d := math.Abs(v[0] - v[1]); !(d <= 1e-10) {
				t.Fatalf("%s/%s: MP2 %v, dense oracle %v (|d| = %.1e)", tc.mol.Name, tc.set, v[0], v[1], d)
			}
		}
	}
}

// TestMP2NeverHoldsTheTensor: the production MP2 allocates, in all, less
// than half of one dense N^4 ERI tensor (the dense path allocates five).
// The kernel's scratch is not MP2's: the pool that holds it may drop it
// (under -race at random), and each refill is subtracted at what one
// scratch for this basis costs. TotalAlloc is process-wide, so other
// goroutines' bytes (the test runtime's, the race detector's) can only
// add to a reading: the fewest bytes of three runs count.
func TestMP2NeverHoldsTheTensor(t *testing.T) {
	res, eng := serialSCF(t, molecule.Benzene(), "sto-3g", Options{})
	perScratch := scratchCost(t, eng)
	n := uint64(eng.Basis.NumBF)
	tensor := n * n * n * n * 8
	got, refills := uint64(math.MaxUint64), uint64(0)
	for range 3 {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		made := integrals.ScratchMade()
		if _, err := RunMP2(eng, res); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		r := uint64(integrals.ScratchMade() - made)
		if b := m1.TotalAlloc - m0.TotalAlloc - r*perScratch; b < got {
			got, refills = b, r
		}
	}
	if got >= tensor/2 {
		t.Fatalf("MP2 allocated %d bytes besides %d kernel scratch refills of %d; the dense N = %d tensor is %d", got, refills, perScratch, n, tensor)
	}
	t.Logf("MP2 allocated %d bytes besides %d kernel scratch refills of %d; the dense tensor is %d", got, refills, perScratch, tensor)
}

// scratchCost is what one kernel scratch for eng's basis allocates. A
// quartet after a collection allocates the pool's per-P array again and
// takes its scratch from the victim cache; after two collections it also
// makes a new scratch. The difference is the scratch alone.
func scratchCost(t *testing.T, eng *integrals.Engine) uint64 {
	t.Helper()
	pc := integrals.NewPairCache(eng, 0)
	f := eng.Basis.ShellSizeMax()
	out := make([]float64, f*f*f*f)
	quartet := func() (uint64, int64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		made := integrals.ScratchMade()
		pc.ShellQuartet(0, 0, 0, 0, out)
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc, integrals.ScratchMade() - made
	}
	quartet()
	for try := 0; try < 20; try++ {
		runtime.GC()
		pin, made := quartet()
		if made != 0 {
			continue // the race detector's pool dropped the scratch: again
		}
		runtime.GC()
		runtime.GC()
		both, made := quartet()
		if made != 1 {
			t.Fatalf("a quartet on an empty pool made %d scratch buffers, want 1", made)
		}
		return both - pin
	}
	t.Fatal("the pool never kept a scratch across a collection")
	return 0
}

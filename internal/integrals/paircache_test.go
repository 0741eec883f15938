package integrals

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/integrals/oracle"
	"repro/internal/molecule"
)

func TestPairCacheMatchesDirect(t *testing.T) {
	for _, tc := range []struct {
		mol *molecule.Molecule
		set string
	}{
		{molecule.Water(), "sto-3g"},
		{molecule.Methane(), "6-31g(d)"},
	} {
		b := buildBasis(t, tc.mol, tc.set)
		pc, ref := NewPairCache(NewEngine(b), 0), oracle.New(b)
		ns := len(b.Shells)
		var direct, cached []float64
		for i := 0; i < ns; i++ {
			for j := 0; j <= i; j++ {
				for k := 0; k <= i; k++ {
					for l := 0; l <= k; l++ {
						direct = ref.ShellQuartet(i, j, k, l, direct)
						cached = pc.ShellQuartet(i, j, k, l, cached)
						for n := range direct {
							if math.Abs(direct[n]-cached[n]) > 1e-11 {
								t.Fatalf("%s/%s quartet (%d%d|%d%d)[%d]: %v vs %v",
									tc.mol.Name, tc.set, i, j, k, l, n, direct[n], cached[n])
							}
						}
					}
				}
			}
		}
	}
}

func TestPairCachePrimitiveScreening(t *testing.T) {
	// Two far-apart atoms: cross-center primitive pairs must be dropped.
	m := &molecule.Molecule{Name: "far"}
	m.AddAtomAngstrom("C", 0, 0, 0)
	m.AddAtomAngstrom("C", 0, 0, 40)
	b := buildBasis(t, m, "sto-3g")
	eng := NewEngine(b)
	pc := NewPairCache(eng, 0)
	if pc.PrimPairsDropped == 0 {
		t.Fatal("no primitive pairs dropped at 40 angstrom separation")
	}
	// Same-center pairs all survive.
	near := NewPairCache(NewEngine(buildBasis(t, molecule.Water(), "sto-3g")), 0)
	if near.PrimPairsDropped != 0 {
		t.Fatalf("%d primitive pairs dropped in water (all near)", near.PrimPairsDropped)
	}
}

func TestPairCacheScreenedAccuracy(t *testing.T) {
	// With screening active the distant-pair quartets must still be
	// accurate to the screening tolerance.
	m := &molecule.Molecule{Name: "mid"}
	m.AddAtomAngstrom("C", 0, 0, 0)
	m.AddAtomAngstrom("C", 0, 0, 6)
	b := buildBasis(t, m, "sto-3g")
	pc, ref := NewPairCache(NewEngine(b), 1e-10), oracle.New(b)
	var direct, cached []float64
	ns := len(b.Shells)
	for i := 0; i < ns; i++ {
		for j := 0; j <= i; j++ {
			direct = ref.ShellQuartet(i, j, i, j, direct)
			cached = pc.ShellQuartet(i, j, i, j, cached)
			for n := range direct {
				if math.Abs(direct[n]-cached[n]) > 1e-8 {
					t.Fatalf("(%d%d|%d%d)[%d]: %v vs %v", i, j, i, j, n, direct[n], cached[n])
				}
			}
		}
	}
}

func TestPairCacheBytes(t *testing.T) {
	b := buildBasis(t, molecule.Water(), "sto-3g")
	pc := NewPairCache(NewEngine(b), 0)
	if pc.Bytes() <= 0 {
		t.Fatal("cache reports no storage")
	}
}

// TestKernelDigests pins the bits of the production ERIs and Q: the FNV-64a
// digest of the little-endian bytes of every float64 of every
// Schwarz-surviving ERI block of the two SCF workloads of bench/, in
// survivors() order, then of Q in packed order. A rewrite of the pair
// builder or the one-electron code that leaves the kernel alone keeps them;
// a kernel change that moves one last bit does not.
func TestKernelDigests(t *testing.T) {
	for _, c := range []struct {
		name string
		mol  func(testing.TB) *molecule.Molecule
		set  string
		want uint64
	}{
		{"benzene", func(testing.TB) *molecule.Molecule { return molecule.Benzene() }, "sto-3g", 0xe1b4b538929efe33},
		{"dimer", benchDimer, "6-31g(d)", 0xcd47f636b4e256cf},
	} {
		b := buildBasis(t, c.mol(t), c.set)
		eng := NewEngine(b)
		pc := NewPairCache(eng, 0)
		h := fnv.New64a()
		var buf []float64
		var word [8]byte
		put := func(vs []float64) {
			for _, v := range vs {
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
				h.Write(word[:])
			}
		}
		for _, q := range survivors(b) {
			buf = pc.ShellQuartet(q[0], q[1], q[2], q[3], buf)
			put(buf)
		}
		put(ComputeSchwarz(eng).Q)
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: ERI and Q digest %016x, want %016x", c.name, got, c.want)
		}
	}
}

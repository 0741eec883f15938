package integrals

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/basis"
	"repro/internal/molecule"
)

// The kernel's own benchmarks: the Schwarz-surviving quartets of the two
// SCF workloads of bench/ swept through PairCache.ShellQuartet, and the
// five probe quartets. Run them on one thread, interleaved with the
// parent's test binary, e.g.
//
//	go test -run '^$' -bench 'KernelSweep|KernelProbe' -cpu 1 ./internal/integrals/

// benchDimer is the water dimer of the dimer_d_private workload.
func benchDimer(tb testing.TB) *molecule.Molecule {
	tb.Helper()
	text, err := os.ReadFile(filepath.Join("..", "..", "bench", "testdata", "water_dimer.xyz"))
	if err != nil {
		tb.Fatal(err)
	}
	m, err := molecule.ParseXYZ(string(text))
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// survivors lists the canonical quartets of b that Schwarz screening at
// tau = 1e-10 (fock.DefaultTau) keeps.
func survivors(b *basis.Basis) [][4]int {
	sch := ComputeSchwarz(NewEngine(b))
	var qs [][4]int
	forCanonicalQuartets(len(b.Shells), func(i, j, k, l int) {
		if !sch.Screened(i, j, k, l, 1e-10) {
			qs = append(qs, [4]int{i, j, k, l})
		}
	})
	return qs
}

// BenchmarkKernelSweep times one pass over a workload's Schwarz survivors
// (ns/op is one sweep).
func BenchmarkKernelSweep(b *testing.B) {
	for _, c := range []struct {
		name     string
		mol      func(testing.TB) *molecule.Molecule
		set      string
		quartets int
	}{
		{"benzene", func(testing.TB) *molecule.Molecule { return molecule.Benzene() }, "sto-3g", 13146},
		{"dimer", benchDimer, "6-31g(d)", 8340},
	} {
		b.Run(c.name, func(b *testing.B) {
			bas := buildBasis(b, c.mol(b), c.set)
			qs := survivors(bas)
			if len(qs) != c.quartets {
				b.Fatalf("%d surviving quartets, want %d", len(qs), c.quartets)
			}
			pc := NewPairCache(NewEngine(bas), 0)
			var buf []float64
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for _, q := range qs {
					buf = pc.ShellQuartet(q[0], q[1], q[2], q[3], buf)
				}
			}
		})
	}
}

// BenchmarkKernelProbe times one quartet of each probe class on
// C2/6-31G(d) (ns/op is one quartet).
func BenchmarkKernelProbe(b *testing.B) {
	pc := NewPairCache(NewEngine(c2Basis(b)), 0)
	for _, c := range c2Probes {
		b.Run(c.name, func(b *testing.B) {
			var buf []float64
			for n := 0; n < b.N; n++ {
				buf = pc.ShellQuartet(c.i, c.j, c.k, c.l, buf)
			}
		})
	}
}

package repro

// Go benchmarks for what the repository benchmark (bench/, BENCHMARK.json)
// has no metric for: the Boys function, the price of verified transport
// on a real Fock build, and the DLB contention-model ablation. Everything
// else — ERI kernels, eigensolve, Fock builds, allreduce, job queue,
// served cache hits — is measured there, and `scaling -exp <id>` times
// each paper artifact.
//
//	go test -run '^$' -bench . -benchmem

import (
	"context"
	"sync"
	"testing"

	"repro/internal/basis"
	"repro/internal/ddi"
	"repro/internal/fock"
	"repro/internal/integrals"
	"repro/internal/linalg"
	"repro/internal/molecule"
	"repro/internal/mpi"
	"repro/internal/scf"
	"repro/internal/simulate"
)

type fockFixture struct {
	eng *integrals.Engine
	sch *integrals.Schwarz
	d   *linalg.Matrix
}

var (
	fixOnce sync.Once
	fix     fockFixture
)

func benzeneFixture(b *testing.B) *fockFixture {
	b.Helper()
	fixOnce.Do(func() {
		bas, err := basis.Build(molecule.Benzene(), "sto-3g")
		if err != nil {
			panic(err)
		}
		eng := integrals.NewEngine(bas)
		sch := integrals.ComputeSchwarz(eng)
		// A converged-ish density via one serial SCF iteration chain.
		res, err := scf.Run(context.Background(), eng, sch, integrals.NewPairCache(eng, 0),
			scf.Plan{SCF: scf.Options{MaxIter: 3}})
		if err != nil {
			panic(err)
		}
		fix = fockFixture{eng: eng, sch: sch, d: res.D}
	})
	return &fix
}

// BenchmarkBoysFunction measures the Boys-function evaluation underlying
// every ERI.
func BenchmarkBoysFunction(b *testing.B) {
	out := make([]float64, 9)
	for n := 0; n < b.N; n++ {
		integrals.Boys(8, float64(n%50)+0.1, out)
	}
}

// BenchmarkVerifiedFockBuild measures the end-to-end cost of verified
// transport on a real mpi-only Fock build (2 ranks), where checksum
// work is amortized against ERI evaluation — the realistic view of the
// integrity layer's overhead, and the one the <5% injection-off
// acceptance bar applies to (measured ~4%).
func BenchmarkVerifiedFockBuild(b *testing.B) {
	f := benzeneFixture(b)
	cfg := fock.Config{Threads: 1, Quartets: integrals.NewPairCache(f.eng, 0)}
	for _, mode := range []struct {
		name       string
		unverified bool
	}{
		{"verified", false},
		{"unverified", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				_, err := mpi.RunWithOptions(2, mpi.RunOptions{Unverified: mode.unverified}, func(c *mpi.Comm) {
					fock.MPIOnlyBuild(ddi.New(c), f.eng, f.sch, cfg).Build(fock.RHF(fock.Dense(f.d)))
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- ablation (EXP-V2) ---

// BenchmarkAblationDLBContention sweeps the DLB contention model.
func BenchmarkAblationDLBContention(b *testing.B) {
	pc := simulate.NewProfileCache()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := simulate.RunDLBContentionAblation(pc); err != nil {
			b.Fatal(err)
		}
	}
}

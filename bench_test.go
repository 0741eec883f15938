package repro

// Go benchmarks for what the repository benchmark (bench/, BENCHMARK.json)
// has no metric for: the Boys function, the price of verified transport
// on a real Fock build, and three ablations (OpenMP schedule, load
// balancer, DLB contention model). Everything else — ERI kernels,
// eigensolve, Fock builds, allreduce, job queue, served cache hits — is
// measured there, and `scaling -exp <id>` times each paper artifact.
//
//	go test -run '^$' -bench . -benchmem

import (
	"sync"
	"testing"

	"repro/internal/basis"
	"repro/internal/ddi"
	"repro/internal/fock"
	"repro/internal/integrals"
	"repro/internal/linalg"
	"repro/internal/loadbalance"
	"repro/internal/molecule"
	"repro/internal/mpi"
	"repro/internal/omp"
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
		res, err := scf.RunRHF(eng, scf.SerialBuilder(eng, sch, 0), scf.Options{MaxIter: 3})
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
	cfg := fock.Config{Threads: 1}
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
					fock.MPIOnlyBuild(ddi.New(c), f.eng, f.sch, fock.RHF(f.d.At), cfg)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- ablations (EXP-V2) ---

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

// BenchmarkAblationSchedule measures the real shared-Fock build under
// different OpenMP schedules (the paper reports no significant schedule
// sensitivity; compare ns/op across sub-benchmarks).
func BenchmarkAblationSchedule(b *testing.B) {
	f := benzeneFixture(b)
	for _, sched := range []struct {
		name string
		cfg  fock.Config
	}{
		{"dynamic1", fock.Config{Threads: 2}},
		{"dynamic8", fock.Config{Threads: 2, Schedule: omp.Schedule{Kind: omp.Dynamic, Chunk: 8}}},
		{"static", fock.Config{Threads: 2, Schedule: omp.Schedule{Kind: omp.Static, Chunk: 4}}},
		{"guided", fock.Config{Threads: 2, Schedule: omp.Schedule{Kind: omp.Guided, Chunk: 1}}},
	} {
		b.Run(sched.name, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				err := mpi.Run(1, func(c *mpi.Comm) {
					fock.SharedFockBuild(ddi.New(c), f.eng, f.sch, fock.RHF(f.d.At), sched.cfg)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLoadBalancers compares the balancing strategies on a
// heavy-tailed synthetic task distribution (related-work comparison:
// static vs DDI counter vs work stealing).
func BenchmarkAblationLoadBalancers(b *testing.B) {
	const tasks, workers = 4000, 16
	costs := make([]float64, tasks)
	for i := range costs {
		costs[i] = 1 + float64(i%97)/10
	}
	costs[0] = 500
	b.Run("static", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			loadbalance.Makespan(loadbalance.NewStatic(tasks, workers), costs, workers)
		}
	})
	b.Run("counter", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			loadbalance.Makespan(loadbalance.NewCounter(tasks, 1), costs, workers)
		}
	})
	b.Run("stealing", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			st, _ := loadbalance.NewStealing(tasks, workers, 7)
			loadbalance.Makespan(st, costs, workers)
		}
	})
}

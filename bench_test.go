package repro

// The benchmark harness: one benchmark per paper table/figure (the
// simulated artifacts regenerate the published rows/series; see
// EXPERIMENTS.md) plus the kernel microbenchmarks that calibrate the
// simulator's cost model and the real-execution benchmarks of the three
// Fock builders.
//
// Run everything:  go test -bench=. -benchmem
// One artifact:    go test -bench=BenchmarkTable3MultiNode

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

// --- shared fixtures ---

var (
	benchCacheOnce sync.Once
	benchCache     *simulate.ProfileCache
)

func profileCache() *simulate.ProfileCache {
	benchCacheOnce.Do(func() { benchCache = simulate.NewProfileCache() })
	return benchCache
}

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

// --- kernel microbenchmarks (cost-model calibration sources) ---

// BenchmarkERIKernels measures one shell-quartet evaluation per carbon
// 6-31G(d) shell-class combination; these numbers (divided by the KNL
// scale factor) are the simulator's TQuartet table. See cmd/calibrate.
func BenchmarkERIKernels(b *testing.B) {
	m := &molecule.Molecule{Name: "C2"}
	m.AddAtomAngstrom("C", 0, 0, 0)
	m.AddAtomAngstrom("C", 0, 0, molecule.CCBond)
	bas, err := basis.Build(m, "6-31g(d)")
	if err != nil {
		b.Fatal(err)
	}
	eng := integrals.NewEngine(bas)
	cases := []struct {
		name       string
		i, j, k, l int
	}{
		{"SSSS", 0, 4, 0, 4},
		{"LLLL", 1, 5, 1, 5},
		{"DDDD", 3, 7, 3, 7},
		{"SLSL", 0, 5, 0, 5},
		{"LLDD", 1, 5, 3, 7},
	}
	var buf []float64
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				buf = eng.ShellQuartet(c.i, c.j, c.k, c.l, buf)
			}
		})
	}
}

// BenchmarkBoysFunction measures the Boys-function evaluation underlying
// every ERI.
func BenchmarkBoysFunction(b *testing.B) {
	out := make([]float64, 9)
	for n := 0; n < b.N; n++ {
		integrals.Boys(8, float64(n%50)+0.1, out)
	}
}

// BenchmarkEigenSym measures the Fock diagonalization step for a
// 100-basis-function system.
func BenchmarkEigenSym(b *testing.B) {
	n := 100
	m := linalg.NewSquare(n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := 1.0 / float64(i+j+1)
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		linalg.EigenSym(m)
	}
}

// --- real-execution Fock builds (the paper's core operation) ---

// BenchmarkFockSerial measures one serial two-electron Fock build on
// benzene/STO-3G.
func BenchmarkFockSerial(b *testing.B) {
	f := benzeneFixture(b)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		fock.SerialBuild(f.eng, f.sch, f.d, fock.DefaultTau)
	}
}

// BenchmarkFockParallel measures one Fock build through each of the
// paper's three algorithms on the in-process runtimes (2 ranks x 2
// threads; this container has one core, so this benchmarks correctness
// machinery overhead rather than speedup).
func BenchmarkFockParallel(b *testing.B) {
	f := benzeneFixture(b)
	cfg := fock.Config{Threads: 2}
	algs := []struct {
		name  string
		build func(*ddi.Context, *integrals.Engine, *integrals.Schwarz,
			[]fock.Channel, fock.Config) ([]*linalg.Matrix, fock.Stats)
	}{
		{"mpi-only", fock.MPIOnlyBuild},
		{"private-fock", fock.PrivateFockBuild},
		{"shared-fock", fock.SharedFockBuild},
	}
	for _, a := range algs {
		b.Run(a.name, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				err := mpi.Run(2, func(c *mpi.Comm) {
					a.build(ddi.New(c), f.eng, f.sch, fock.RHF(f.d.At), cfg)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAllreduce measures the gsumf substrate (Fock reduction) at a
// 1,830-element packed-matrix payload over 4 ranks.
func BenchmarkAllreduce(b *testing.B) {
	buf := make([]float64, 1830)
	for n := 0; n < b.N; n++ {
		err := mpi.Run(4, func(c *mpi.Comm) {
			local := make([]float64, len(buf))
			c.AllreduceSumInPlace(local)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifiedTransport compares the same 4-rank allreduce with
// payload checksumming on (the default: every message framed with a
// Fletcher-64 checksum, verified at receive) and off (RunOptions
// Unverified). This is the worst case — pure communication, zero
// compute to amortize against — so the gap is the absolute price of a
// checksummed message, not the integrity layer's share of a real run
// (see BenchmarkVerifiedFockBuild for that).
func BenchmarkVerifiedTransport(b *testing.B) {
	for _, mode := range []struct {
		name       string
		unverified bool
	}{
		{"verified", false},
		{"unverified", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			buf := make([]float64, 1830)
			for n := 0; n < b.N; n++ {
				_, err := mpi.RunWithOptions(4, mpi.RunOptions{Unverified: mode.unverified}, func(c *mpi.Comm) {
					local := make([]float64, len(buf))
					c.AllreduceSumInPlace(local)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
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

// --- paper artifacts: Tables 2-3, Figures 3-7 (EXP-T2..EXP-F7) ---

// BenchmarkTable2MemoryFootprint regenerates Table 2.
func BenchmarkTable2MemoryFootprint(b *testing.B) {
	for n := 0; n < b.N; n++ {
		rows := simulate.RunTable2()
		if len(rows) != 5 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkTable3MultiNode regenerates Table 3 / Figure 6 (2.0 nm on
// Theta, three codes, 4-512 nodes).
func BenchmarkTable3MultiNode(b *testing.B) {
	pc := profileCache()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := simulate.RunTable3(pc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3AffinityScaling regenerates Figure 3 (affinity sweep).
func BenchmarkFig3AffinityScaling(b *testing.B) {
	pc := profileCache()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := simulate.RunFig3(pc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4SingleNodeScaling regenerates Figure 4 (single-node
// hardware-thread scaling).
func BenchmarkFig4SingleNodeScaling(b *testing.B) {
	pc := profileCache()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := simulate.RunFig4(pc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5ClusterMemoryModes regenerates Figure 5 (cluster x memory
// mode sweep).
func BenchmarkFig5ClusterMemoryModes(b *testing.B) {
	pc := profileCache()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := simulate.RunFig5(pc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7LargeScale regenerates Figure 7 (5.0 nm, shared-Fock, up
// to 3,000 nodes / 192,000 cores). The first iteration builds the
// 30,240-basis-function workload profile; subsequent iterations reuse it.
func BenchmarkFig7LargeScale(b *testing.B) {
	pc := profileCache()
	if _, err := pc.Get("5.0nm"); err != nil { // profile build outside timing
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := simulate.RunFig7(pc); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations (EXP-V2) ---

// BenchmarkAblationDLBContention sweeps the DLB contention model.
func BenchmarkAblationDLBContention(b *testing.B) {
	pc := profileCache()
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

// BenchmarkPairCacheVsDirect measures the shell-pair precomputation
// speedup on the serial Fock build (an ablation of the engine design).
func BenchmarkPairCacheVsDirect(b *testing.B) {
	f := benzeneFixture(b)
	b.Run("direct", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			fock.SerialBuild(f.eng, f.sch, f.d, fock.DefaultTau)
		}
	})
	pc := integrals.NewPairCache(f.eng, 0)
	b.Run("paircache", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			err := mpi.Run(1, func(c *mpi.Comm) {
				fock.MPIOnlyBuild(ddi.New(c), f.eng, f.sch, fock.RHF(f.d.At),
					fock.Config{Quartets: pc})
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

package scf

import (
	"time"

	"repro/internal/ddi"
	"repro/internal/fock"
	"repro/internal/integrals"
	"repro/internal/linalg"
	"repro/internal/telemetry"
)

// SerialBuilder returns a Builder running the single-threaded reference
// Fock construction.
func SerialBuilder(eng *integrals.Engine, sch *integrals.Schwarz, tau float64) Builder {
	if tau == 0 {
		tau = fock.DefaultTau
	}
	return func(d *linalg.Matrix) (*linalg.Matrix, fock.Stats) {
		return fock.SerialBuild(eng, sch, d, tau)
	}
}

// Algorithm selects one of the paper's three Fock-build parallelizations.
type Algorithm string

// The three SCF implementations benchmarked in the paper, plus the
// fault-aware variant added on top of them.
const (
	AlgMPIOnly     Algorithm = "mpi-only"     // Algorithm 1, stock GAMESS
	AlgPrivateFock Algorithm = "private-fock" // Algorithm 2
	AlgSharedFock  Algorithm = "shared-fock"  // Algorithm 3
	// AlgResilientFock is Algorithm 1's distribution on the lease-based
	// DLB with one-sided accumulation: a build survives mid-flight rank
	// death by re-issuing the dead rank's task leases (see
	// fock.ResilientBuild). Not part of the paper's benchmark set.
	AlgResilientFock Algorithm = "resilient-fock"
)

// Algorithms lists the paper's three variants in presentation order.
var Algorithms = []Algorithm{AlgMPIOnly, AlgPrivateFock, AlgSharedFock}

// ParallelBuilder returns a Builder running the chosen algorithm on the
// given DDI context. It must be invoked from inside mpi.Run, and ALL
// ranks must call the resulting builder collectively each iteration.
// When the run carries a telemetry session, every build is wrapped in a
// fock.build span and contributes this rank's load share to the
// imbalance report.
func ParallelBuilder(alg Algorithm, dx *ddi.Context, eng *integrals.Engine,
	sch *integrals.Schwarz, cfg fock.Config) Builder {
	build := parallelChannels(alg, dx, eng, sch, cfg)
	return func(d *linalg.Matrix) (*linalg.Matrix, fock.Stats) {
		g, stats := build(fock.RHF(d.At))
		return g[0], stats
	}
}

// ParallelJKBuilder is ParallelBuilder for the J/K channels of an
// unrestricted calculation: the same preset, the same sweep, three
// matrices riding it.
func ParallelJKBuilder(alg Algorithm, dx *ddi.Context, eng *integrals.Engine,
	sch *integrals.Schwarz, cfg fock.Config) JKBuilder {
	build := parallelChannels(alg, dx, eng, sch, cfg)
	return func(dj, dka, dkb *linalg.Matrix) (*linalg.Matrix, *linalg.Matrix, *linalg.Matrix, fock.Stats) {
		g, stats := build(fock.UHF(dj.At, dka.At, dkb.At))
		return g[0], g[1], g[2], stats
	}
}

// parallelChannels resolves an algorithm name to its fock preset and
// returns the instrumented build over any channel list.
func parallelChannels(alg Algorithm, dx *ddi.Context, eng *integrals.Engine,
	sch *integrals.Schwarz, cfg fock.Config) func([]fock.Channel) ([]*linalg.Matrix, fock.Stats) {
	var preset func(*ddi.Context, *integrals.Engine, *integrals.Schwarz,
		[]fock.Channel, fock.Config) ([]*linalg.Matrix, fock.Stats)
	switch alg {
	case AlgMPIOnly:
		preset = fock.MPIOnlyBuild
	case AlgPrivateFock:
		preset = fock.PrivateFockBuild
	case AlgSharedFock:
		preset = fock.SharedFockBuild
	case AlgResilientFock:
		preset = fock.ResilientBuild
	default:
		panic("scf: unknown algorithm " + string(alg))
	}
	tel, rank := dx.Comm.Telemetry(), dx.Comm.Rank()
	return func(chans []fock.Channel) (g []*linalg.Matrix, stats fock.Stats) {
		instrumented(tel, string(alg), rank, func() fock.Stats {
			g, stats = preset(dx, eng, sch, chans, cfg)
			return stats
		})
		return g, stats
	}
}

// InstrumentedBuilder wraps a Builder so every Fock build emits a
// fock.build span (named by variant, on the rank's pid lane) and records
// the rank's load share — tasks drawn, quartets computed, wall time —
// with the session's imbalance collector. A nil session returns b
// unchanged.
func InstrumentedBuilder(b Builder, tel *telemetry.Session, variant string, rank int) Builder {
	if tel == nil {
		return b
	}
	return func(d *linalg.Matrix) (g *linalg.Matrix, stats fock.Stats) {
		instrumented(tel, variant, rank, func() fock.Stats {
			g, stats = b(d)
			return stats
		})
		return g, stats
	}
}

// instrumented runs one Fock build under its fock.build span and records
// the load it reports.
func instrumented(tel *telemetry.Session, variant string, rank int, build func() fock.Stats) {
	if tel == nil {
		build()
		return
	}
	end := tel.Span("fock.build", variant, rank, 0, nil)
	t0 := time.Now()
	stats := build()
	wall := time.Since(t0)
	end()
	tel.RecordLoad(variant, rank, telemetry.RankLoad{
		Tasks:    stats.DLBGrabs,
		Quartets: stats.QuartetsComputed,
		Wall:     wall,
	})
}

// InCoreBuilder returns a Builder that evaluates the screened ERIs once
// and replays them every SCF iteration — GAMESS's "conventional" mode,
// practical only at the small sizes real execution targets (the error
// from BuildStore explains why the paper's systems require direct SCF).
func InCoreBuilder(eng *integrals.Engine, sch *integrals.Schwarz, tau float64) (Builder, error) {
	store, err := fock.BuildStore(eng, sch, tau)
	if err != nil {
		return nil, err
	}
	return func(d *linalg.Matrix) (*linalg.Matrix, fock.Stats) {
		return store.BuildFock(d)
	}, nil
}

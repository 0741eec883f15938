package scf

import (
	"repro/internal/ddi"
	"repro/internal/fock"
	"repro/internal/integrals"
	"repro/internal/linalg"
	"repro/internal/telemetry"
)

// Algorithm names a Fock preset — and with it the storage the SCF
// iterates on: replicated matrices for the serial build, the paper's
// three parallelizations and the resilient build; distributed tiles for
// the purified presets.
type Algorithm string

const (
	AlgSerial      Algorithm = ""             // the calling goroutine, no world
	AlgMPIOnly     Algorithm = "mpi-only"     // Algorithm 1, stock GAMESS
	AlgPrivateFock Algorithm = "private-fock" // Algorithm 2
	AlgSharedFock  Algorithm = "shared-fock"  // Algorithm 3
	// AlgResilientFock is Algorithm 1's distribution on the lease-based
	// DLB with one-sided accumulation: a build survives mid-flight rank
	// death by re-issuing the dead rank's task leases (see
	// fock.ResilientBuild). Not part of the paper's benchmark set.
	AlgResilientFock Algorithm = "resilient-fock"
	// AlgPurified is fock.TiledBuild into 2D block-cyclic tiles with SP2
	// purification as the density step; AlgPurifiedABFT is the same over
	// checksum-redundant tiles (see tiled.go).
	AlgPurified     Algorithm = "purified"
	AlgPurifiedABFT Algorithm = "purified-abft"
)

// Algorithms lists the paper's three variants in presentation order.
var Algorithms = []Algorithm{AlgMPIOnly, AlgPrivateFock, AlgSharedFock}

// ParallelBuilder returns a Builder running the chosen replicated-storage
// algorithm on the given DDI context. It must be invoked from inside
// mpi.Run, and ALL ranks must call the resulting builder collectively
// each iteration. When the run carries a telemetry session, every build
// is wrapped in a fock.build span carrying this rank's load share (see
// buildSpan).
func ParallelBuilder(alg Algorithm, dx *ddi.Context, eng *integrals.Engine,
	sch *integrals.Schwarz, cfg fock.Config) Builder {
	build := parallelChannels(alg, dx, eng, sch, cfg)
	return func(d *linalg.Matrix) (*linalg.Matrix, fock.Stats) {
		g, stats := build([]*linalg.Matrix{d})
		return g[0], stats
	}
}

// presets are the constructors of the replicated-storage algorithms.
var presets = map[Algorithm]func(*ddi.Context, *integrals.Engine, *integrals.Schwarz, fock.Config) *fock.Builder{
	AlgMPIOnly:       fock.MPIOnlyBuild,
	AlgPrivateFock:   fock.PrivateFockBuild,
	AlgSharedFock:    fock.SharedFockBuild,
	AlgResilientFock: fock.ResilientBuild,
}

// parallelChannels constructs the algorithm's fock preset once, for the
// world attempt dx belongs to, and returns the instrumented build over
// any density list: the same builder, the same sweep, one or three
// matrices riding it.
func parallelChannels(alg Algorithm, dx *ddi.Context, eng *integrals.Engine,
	sch *integrals.Schwarz, cfg fock.Config) channelBuilder {
	construct, ok := presets[alg]
	if !ok {
		panic("scf: no replicated-storage Fock preset named " + string(alg))
	}
	return instrument(construct(dx, eng, sch, cfg), dx.Comm.Telemetry(), string(alg), dx.Comm.Rank())
}

// instrument is the build of b over a density list, each build run
// inside buildSpan.
func instrument(b *fock.Builder, tel *telemetry.Session, variant string, rank int) channelBuilder {
	return func(ds []*linalg.Matrix) ([]*linalg.Matrix, fock.Stats) {
		sp := buildSpan(tel, variant, rank)
		g, stats := b.Build(channels(ds))
		endBuild(sp, stats)
		return g, stats
	}
}

// buildSpan opens the one record of one rank's share of one Fock build,
// for every preset: a fock.build span named by variant on the rank's pid
// lane. endBuild closes it with the rank's load share as args — tasks
// (DLB draws) and quartets (quartets computed) — so the span's duration
// is the rank's wall time, and telemetry.Imbalance reduces these spans
// to the load-imbalance report. A nil session records nothing.
func buildSpan(tel *telemetry.Session, variant string, rank int) telemetry.Span {
	return tel.Start("fock.build", variant, rank, 0, nil)
}

// endBuild closes a buildSpan with the build's load share, unboxed: a
// traced build allocates nothing for it.
func endBuild(sp telemetry.Span, s fock.Stats) {
	sp.EndInts(telemetry.IntArg{Key: "tasks", Val: s.DLBGrabs}, telemetry.IntArg{Key: "quartets", Val: s.QuartetsComputed})
}

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

// parallelChannels resolves an algorithm name to its fock preset and
// returns the instrumented build over any density list: the same preset,
// the same sweep, one or three matrices riding it.
func parallelChannels(alg Algorithm, dx *ddi.Context, eng *integrals.Engine,
	sch *integrals.Schwarz, cfg fock.Config) channelBuilder {
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
		panic("scf: no replicated-storage Fock preset named " + string(alg))
	}
	return instrument(func(ds []*linalg.Matrix) ([]*linalg.Matrix, fock.Stats) {
		return preset(dx, eng, sch, channels(ds), cfg)
	}, dx.Comm.Telemetry(), string(alg), dx.Comm.Rank())
}

// instrument wraps a build so each one runs inside buildSpan.
func instrument(b channelBuilder, tel *telemetry.Session, variant string, rank int) channelBuilder {
	return func(ds []*linalg.Matrix) ([]*linalg.Matrix, fock.Stats) {
		done := buildSpan(tel, variant, rank)
		g, stats := b(ds)
		done(stats)
		return g, stats
	}
}

// buildSpan opens the one record of one rank's share of one Fock build,
// for every preset: a fock.build span named by variant on the rank's pid
// lane. The returned function closes it with the rank's load share as
// args — tasks (DLB draws) and quartets (quartets computed) — so the
// span's duration is the rank's wall time, and telemetry.Imbalance
// reduces these spans to the load-imbalance report. A nil session
// records nothing.
func buildSpan(tel *telemetry.Session, variant string, rank int) func(fock.Stats) {
	if tel == nil {
		return func(fock.Stats) {}
	}
	end := tel.SpanArgsAtEnd("fock.build", variant, rank, 0)
	return func(s fock.Stats) {
		end(map[string]any{"tasks": s.DLBGrabs, "quartets": s.QuartetsComputed})
	}
}

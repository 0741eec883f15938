// Package repro is a from-scratch Go reproduction of "An efficient
// MPI/OpenMP parallelization of the Hartree-Fock method for the second
// generation of Intel Xeon Phi processor" (Mironov et al., SC17).
//
// It contains a complete Hartree-Fock program (Gaussian basis
// sets, McMurchie-Davidson integrals, Schwarz screening, SCF with DIIS),
// the paper's three Fock-build parallelizations (MPI-only, private-Fock
// hybrid, shared-Fock hybrid) running on in-process MPI/OpenMP runtimes,
// and a calibrated discrete-event simulator that reproduces the paper's
// Xeon Phi / Theta benchmark tables and figures at full scale.
//
// This root package is the high-level facade used by the examples and
// command-line tools; the implementation lives under internal/ (see
// DESIGN.md for the system inventory).
package repro

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/basis"
	"repro/internal/integrals"
	"repro/internal/molecule"
	"repro/internal/mpi"
	"repro/internal/scf"
	"repro/internal/telemetry"
)

// Molecule is a molecular geometry (see NewMolecule, BuiltinMolecule,
// molecule.ParseXYZ).
type Molecule = molecule.Molecule

// Result is an SCF calculation: energies, density, convergence history,
// and — where the plan has them — the spin-resolved quantities (Spin),
// the tiled-storage accounting (Tiles) and the recovery report (Recovery).
type Result = scf.Result

// Plan describes one SCF run as a point on orthogonal axes: spin
// channels (Multiplicity), Fock preset and storage (Algorithm), recovery
// policy (Recovery), plus the knobs of each. Start from a named preset —
// Serial, MPIOnly, PrivateFock, SharedFock, ResilientFock, Resilient,
// Elastic, Purified, PurifiedABFT — and set what differs:
//
//	p := repro.SharedFock
//	p.Ranks, p.Threads = 4, 4
//	res, err := repro.Run(ctx, mol, "6-31g(d)", p)
type Plan = scf.Plan

// Algorithm names a Fock preset (Plan.Algorithm); the presets below
// carry theirs.
type Algorithm = scf.Algorithm

// SCFOptions configures the SCF loop of a Plan (Plan.SCF); the zero
// value uses defaults (DIIS on, RMS-density convergence 1e-8, at most
// 100 iterations).
type SCFOptions = scf.Options

// The presets. Algorithms 1-3 are the paper's three Fock-build
// parallelizations on the in-process MPI/OpenMP runtimes.
var (
	Serial      = Plan{}
	MPIOnly     = Plan{Algorithm: scf.AlgMPIOnly}     // Algorithm 1, stock GAMESS
	PrivateFock = Plan{Algorithm: scf.AlgPrivateFock} // Algorithm 2
	SharedFock  = Plan{Algorithm: scf.AlgSharedFock}  // Algorithm 3
	// ResilientFock is Algorithm 1's distribution on the lease-based DLB:
	// a Fock build absorbs rank death in flight by re-issuing the dead
	// rank's task leases.
	ResilientFock = Plan{Algorithm: scf.AlgResilientFock}
	// Resilient adds shrink-and-restart from the per-iteration checkpoint
	// for failures the build cannot absorb.
	Resilient = Plan{Algorithm: scf.AlgResilientFock, Recovery: scf.CheckpointShrink}
	// Elastic runs under a rank pool (Plan.Membership): ranks join at
	// iteration boundaries via the checkpoint handshake (grow-restart),
	// straggler-flagged ranks are re-hosted (migrate), and rank death
	// shrinks the pool — every transition restarting from the last
	// CRC-verified checkpoint, the converged energy invariant under all
	// of it.
	Elastic = Plan{Algorithm: scf.AlgResilientFock, Recovery: scf.ElasticEpoch}
	// Purified keeps every iteration matrix as 2D block-cyclic tiles over
	// the rank grid and replaces the replicated eigensolve by SP2
	// purification: no rank ever holds an N x N iteration matrix, which
	// is what lets systems whose replicated working set exceeds a node's
	// MCDRAM run at all. Result.C and OrbitalEnergies stay nil.
	Purified = Plan{Algorithm: scf.AlgPurified}
	// PurifiedABFT is Purified over checksum-redundant tiles: rank death
	// mid-iteration is survived by reconstructing the lost tiles from
	// parity and resuming the interrupted iteration on the shrunken
	// world, and resident bit flips are caught and repaired by the
	// per-sweep checksum audit.
	PurifiedABFT = Plan{Algorithm: scf.AlgPurifiedABFT, Recovery: scf.ParitySalvage}
)

// plans is the one name→Plan table: hfrun -alg and the job spec's
// mode/algorithm both resolve through it.
var plans = []struct {
	name string
	plan Plan
}{
	{"serial", Serial},
	{"mpi-only", MPIOnly},
	{"private-fock", PrivateFock},
	{"shared-fock", SharedFock},
	{"resilient-fock", ResilientFock},
	{"parallel", SharedFock},
	{"resilient", Resilient},
	{"elastic", Elastic},
	{"purified", Purified},
	{"purified-abft", PurifiedABFT},
}

// PlanNames lists the names PlanByName accepts.
func PlanNames() []string {
	names := make([]string, len(plans))
	for i, p := range plans {
		names[i] = p.name
	}
	return names
}

// PlanByName returns the preset with the given name; the empty name is
// the zero Plan, a serial RHF.
func PlanByName(name string) (Plan, error) {
	if name == "" {
		return Serial, nil
	}
	for i := range plans {
		if plans[i].name == name {
			return plans[i].plan, nil
		}
	}
	return Plan{}, fmt.Errorf("repro: unknown plan %q (available: %s)", name, strings.Join(PlanNames(), ", "))
}

// builtinMolecules maps every accepted name (canonical first, formula
// aliases after) to its constructor. BuiltinMoleculeNames and the
// unknown-name error are derived from it so the advertised list can never
// drift from what BuiltinMolecule actually accepts.
var builtinMolecules = []struct {
	canonical string
	aliases   []string
	build     func() *molecule.Molecule
}{
	{"h2", nil, molecule.H2},
	{"heh+", nil, molecule.HeHPlus},
	{"water", []string{"h2o"}, molecule.Water},
	{"methane", []string{"ch4"}, molecule.Methane},
	{"ammonia", []string{"nh3"}, molecule.Ammonia},
	{"benzene", []string{"c6h6"}, molecule.Benzene},
}

// BuiltinMoleculeNames lists the canonical names BuiltinMolecule accepts.
func BuiltinMoleculeNames() []string {
	names := make([]string, len(builtinMolecules))
	for i, b := range builtinMolecules {
		names[i] = b.canonical
	}
	return names
}

// BuiltinMolecule returns a named test system: "h2", "heh+", "water",
// "methane", "ammonia", "benzene" (formula aliases like "h2o" work too).
// A graphene flake is available through GrapheneFlake, and the paper's
// bilayer systems through PaperSystem.
func BuiltinMolecule(name string) (*Molecule, error) {
	for _, b := range builtinMolecules {
		if name == b.canonical {
			return b.build(), nil
		}
		for _, a := range b.aliases {
			if name == a {
				return b.build(), nil
			}
		}
	}
	return nil, fmt.Errorf("repro: unknown builtin molecule %q (available: %s)",
		name, strings.Join(BuiltinMoleculeNames(), ", "))
}

// GrapheneFlake returns a single-layer flake with n carbon atoms.
func GrapheneFlake(n int) *Molecule { return molecule.GrapheneFlake(n) }

// PaperSystem returns one of the paper's Table 4 graphene bilayers
// ("0.5nm", "1.0nm", "1.5nm", "2.0nm", "5.0nm").
func PaperSystem(name string) (*Molecule, error) { return molecule.PaperSystem(name) }

// PaperSystemNames lists the names PaperSystem accepts.
func PaperSystemNames() []string { return molecule.PaperSystemNames() }

// ParseXYZ parses a molecule in XYZ format (angstrom).
func ParseXYZ(text string) (*Molecule, error) { return molecule.ParseXYZ(text) }

// Telemetry is a unified observability session: a metrics registry, a
// per-rank/per-thread Chrome trace-event recorder, and a load-imbalance
// collector. Create one with NewTelemetry, pass it via Plan.SCF.Telemetry,
// then write out its trace and metrics or print its Summary. A nil
// session disables all instrumentation.
type Telemetry = telemetry.Session

// NewTelemetry returns a fresh telemetry session.
func NewTelemetry() *Telemetry { return telemetry.NewSession() }

// ErrCanceled is reported (via errors.Is) when a run is stopped by
// context cancellation or deadline expiry. The returned error also
// unwraps to the context cause, so errors.Is(err,
// context.DeadlineExceeded) distinguishes a timeout from a cancel.
var ErrCanceled = scf.ErrCanceled

// ErrUnsupported is reported (via errors.Is) for a Plan whose axes name
// a combination that is out of scope, e.g. unrestricted SCF with SP2
// purification.
var ErrUnsupported = scf.ErrUnsupported

// ErrRebalance is the cancellation cause of an SCF epoch stopped for a
// membership transition (grow or migrate) rather than by the caller.
var ErrRebalance = scf.ErrRebalance

// Membership is an elastic rank pool: candidates announce joins on its
// bus, the Elastic plan admits them at iteration boundaries, and rank
// death or straggler migration advances its epoch.
type Membership = mpi.Membership

// NewMembership creates a rank pool of the given initial size. tel
// (optional) receives the elastic.* counters and gauges.
func NewMembership(size int, tel *Telemetry) *Membership {
	return mpi.NewMembership(size, tel)
}

// Run performs the Hartree-Fock calculation p describes on mol with the
// named basis set ("sto-3g", "6-31g", the paper's "6-31g(d)", or one
// installed by RegisterBasis). In a parallel plan all ranks compute the
// identical result and one is returned.
//
// Cancellation or deadline expiry of ctx stops the SCF loop at the next
// iteration boundary with ErrCanceled; parallel plans decide it
// collectively — every rank folds its local observation into a
// one-element allreduce each iteration — so no rank is left blocked in a
// collective. A nil or background context disables the check entirely.
func Run(ctx context.Context, mol *Molecule, basisName string, p Plan) (*Result, error) {
	eng, err := engineFor(mol, basisName)
	if err != nil {
		return nil, err
	}
	sch := integrals.ComputeSchwarz(eng)
	// The one production ERI source: Hermite pair densities precomputed per
	// shell pair and a two-stage, allocation-free kernel over them, shared
	// by every rank and thread of the plan (8-24x the seed kernel per
	// quartet by shell class; EXPERIMENTS.md, "ERI kernel").
	return scf.Run(ctx, eng, sch, integrals.NewPairCache(eng, 0), p)
}

// engineFor builds the named basis over mol and its integral engine.
func engineFor(mol *Molecule, basisName string) (*integrals.Engine, error) {
	b, err := basis.Build(mol, basisName)
	if err != nil {
		return nil, err
	}
	return integrals.NewEngine(b), nil
}

// BasisInfo summarizes a basis over a molecule: shell and basis function
// counts (the quantities in the paper's Table 4).
type BasisInfo struct {
	Name      string
	NumShells int
	NumBF     int
	MaxL      int
}

// DescribeBasis builds the named basis on mol and reports its dimensions.
func DescribeBasis(mol *Molecule, basisName string) (BasisInfo, error) {
	b, err := basis.Build(mol, basisName)
	if err != nil {
		return BasisInfo{}, err
	}
	return BasisInfo{Name: basisName, NumShells: b.NumShells(), NumBF: b.NumBF, MaxL: b.MaxL()}, nil
}

// RegisterBasis installs a custom basis set in Gaussian94 (.gbs) format —
// the format served by the EMSL Basis Set Exchange — under the given
// name, usable with Run. Built-in names are protected.
func RegisterBasis(name, gbsText string) error {
	return basis.RegisterGBS(name, gbsText)
}

// Package scf drives the Hartree-Fock self-consistent field procedure
// as one loop over orthogonal axes (DESIGN.md "SCF as axes"): spin
// channels (restricted n=1 | unrestricted n=2), storage and its density
// step (replicated matrices with a Löwdin-basis eigensolve | distributed
// tiles with SP2 purification, optionally checksum-redundant), the Fock
// preset that feeds it (serial, the paper's Algorithms 1-3, the
// lease-based resilient build, the tiled build), and the recovery policy
// of the supervisor that launches the world. Run is the entry point;
// RunRHF is the dense loop for callers that bring their own builder.
package scf

import (
	"context"
	"fmt"
	"math"

	"repro/internal/fock"
	"repro/internal/integrals"
	"repro/internal/linalg"
	"repro/internal/telemetry"
)

// Builder computes the two-electron Fock matrix for a density.
type Builder func(d *linalg.Matrix) (*linalg.Matrix, fock.Stats)

// DIIS history depths. The dense step extrapolates on the max-abs
// element of X^T (FDS - SDF) X; the tiled step on the commutator
// [F', D'] in the orthonormal basis, whose Frobenius norm (a
// deterministic global sum, where a distributed max is not) is what it
// reports as IterInfo.DIISErr.
const (
	denseDIISSize = 8
	tiledDIISSize = 4
)

// linDepTol is the overlap eigenvalue cutoff of the Löwdin
// orthogonalizer.
const linDepTol = 1e-8

// Options configures the SCF loop. The zero value gives sensible defaults.
type Options struct {
	MaxIter    int     // default 100
	ConvDens   float64 // RMS density change threshold, default 1e-8
	ConvEnergy float64 // energy change threshold, default 1e-9
	// Guess selects the initial Fock: "core" (bare core Hamiltonian,
	// default) or "gwh" (generalized Wolfsberg-Helmholz, which weights
	// off-diagonal elements by overlaps and usually starts closer).
	Guess string
	// InitialDensity warm-starts the SCF from a previous total density
	// (e.g. a loaded Checkpoint), overriding Guess. Dimensions must match.
	// An unrestricted run splits it between the spins by electron share.
	InitialDensity *linalg.Matrix
	// OnIteration, when set, is invoked after every completed iteration
	// with the up-to-date Result (History, Energy, D reflect iteration
	// iter). Under Run it fires on rank 0 only, after the supervisor's
	// checkpoint write.
	OnIteration func(iter int, res *Result)
	// Telemetry, when set, receives one scf.iter span per iteration
	// (args: energy, dE, rmsD) plus energy/convergence gauges; nil
	// disables instrumentation.
	Telemetry *telemetry.Session

	// disableDI and disableWatchdog switch off DIIS extrapolation and the
	// convergence watchdog (watchdog.go). Both always run in production —
	// a converging run never trips the watchdog, while a diverging or
	// oscillating one is walked down the degradation ladder instead of
	// burning MaxIter iterations or returning NaN; the package's tests
	// turn them off to show what each one buys.
	disableDI       bool
	disableWatchdog bool

	// What follows is set by Run and its supervisor only.

	// warm is a restart state: one density per spin channel, from a
	// verified checkpoint. It wins over InitialDensity.
	warm []*linalg.Matrix
	// rank is the trace lane (pid) of this SCF instance — the MPI rank for
	// parallel runs, 0 for serial; gauges and the iteration counter are
	// emitted from rank 0 only so a collective run does not multiply-count
	// them.
	rank int
	// ctx, when non-nil with a non-nil Done channel, is polled once per
	// iteration; a canceled or expired context stops the loop at the next
	// iteration boundary with a *CanceledError (errors.Is ErrCanceled).
	// The partial Result accumulated so far is returned alongside the
	// error.
	ctx context.Context
	// cancelAgree, when set, replaces the local ctx poll with a collective
	// agreement (see the cancel.go package comment): it is called once per
	// iteration on every rank with the rank's local cancellation
	// observation and must return the agreed decision. All ranks must call
	// it the same number of times — implementations are collectives.
	cancelAgree func(local bool) bool
}

func (o Options) withDefaults() Options {
	if o.MaxIter == 0 {
		o.MaxIter = 100
	}
	if o.ConvDens == 0 {
		o.ConvDens = 1e-8
	}
	if o.ConvEnergy == 0 {
		o.ConvEnergy = 1e-9
	}
	return o
}

// rank0 returns the session on rank 0 and nil (the no-op session)
// elsewhere: counters, gauges and instants of a collective run are
// emitted once, not once per rank.
func (o Options) rank0() *telemetry.Session {
	if o.rank != 0 {
		return nil
	}
	return o.Telemetry
}

// IterInfo records one SCF iteration for convergence reporting.
type IterInfo struct {
	Energy  float64 // total energy at this iteration
	DeltaE  float64
	RMSDens float64
	DIISErr float64
	// FockStat counts this iteration's Fock build, summed over the ranks
	// that completed the run.
	FockStat fock.Stats
	// Sweeps is the number of SP2 purification sweeps the tiled density
	// step took; 0 under the eigensolve.
	Sweeps int
	// Degrade names the watchdog rung escalated to during this iteration
	// ("damping", "level-shift", "diis-reset", "roothaan"); empty for a
	// healthy iteration.
	Degrade string
	// Recomputed reports that this iteration's Fock build failed
	// integrity validation and was quarantined and rebuilt.
	Recomputed bool
}

// Result is a converged (or exhausted) SCF calculation.
type Result struct {
	Converged        bool
	Iterations       int
	Energy           float64 // total = electronic + nuclear repulsion
	Electronic       float64
	NuclearRepulsion float64
	// OrbitalEnergies and C are the restricted eigensolve's orbitals: nil
	// after an unrestricted run (see Spin) and after SP2 purification,
	// which never forms orbitals.
	OrbitalEnergies []float64
	C               *linalg.Matrix // MO coefficients (columns)
	D               *linalg.Matrix // final total density
	History         []IterInfo
	TotalFockStats  fock.Stats // every build's counters, summed over the ranks that completed the run

	Spin     *Spin       // unrestricted runs only
	Tiles    *PurifyInfo // tiled storage only
	Recovery *Report     // set by Run: how the supervisor got here
}

// Spin holds the spin-resolved quantities of an unrestricted run.
type Spin struct {
	NumAlpha, NumBeta int
	EpsAlpha, EpsBeta []float64
	DAlpha, DBeta     *linalg.Matrix
	SSquared          float64 // <S^2> expectation value (spin contamination probe)
}

// densityFromC assembles D = occ C_occ C_occ^T: occ = 2 is the
// closed-shell density, occ = 1 a single-spin density.
func densityFromC(c *linalg.Matrix, nocc int, occ float64) *linalg.Matrix {
	n := c.Rows
	d := linalg.NewSquare(n)
	for a := 0; a < n; a++ {
		for b := 0; b <= a; b++ {
			sum := 0.0
			for o := 0; o < nocc; o++ {
				sum += c.At(a, o) * c.At(b, o)
			}
			d.Set(a, b, occ*sum)
			d.Set(b, a, occ*sum)
		}
	}
	return d
}

// step is the storage-specific body of one SCF iteration: build the
// Fock matrix from the current density, take the density step, and
// publish the new state (energy, density, orbitals) on res. It returns
// the iteration's record; History and Iterations are the loop's.
type step interface {
	run(iter int, ePrev float64, res *Result) (IterInfo, error)
}

// iterate is the SCF loop — the only one. Every preset, storage and
// spin case runs this frame: cancel gate, scf.iter span, step, history,
// gauges and OnIteration, convergence test. It starts at iteration
// start with ePrev the energy of iteration start-1 (a resumed run
// continues its trajectory; a fresh one passes 1 and +Inf).
func iterate(opt Options, st step, res *Result, start int, ePrev float64) error {
	tel, rank, tel0 := opt.Telemetry, opt.rank, opt.rank0()
	for iter := start; iter <= opt.MaxIter; iter++ {
		// Cancellation gate. Parallel runs agree collectively (every rank
		// must reach this point the same number of times); serial runs
		// trust the local poll. Checked before any work so a canceled job
		// never starts another O(n^4) Fock build.
		if opt.cancelAgree != nil || (opt.ctx != nil && opt.ctx.Done() != nil) {
			stop := opt.ctx != nil && opt.ctx.Err() != nil
			if opt.cancelAgree != nil {
				stop = opt.cancelAgree(stop)
			}
			if stop {
				var cause error
				if opt.ctx != nil {
					cause = context.Cause(opt.ctx)
				}
				tel0.Counter("scf.canceled").Add(1)
				tel0.Instant("scf.cancel", "canceled", rank, 0, map[string]any{"iter": iter})
				return &CanceledError{Iter: iter, Cause: cause}
			}
		}
		sp := tel.Start("scf.iter", "iteration", rank, 0, nil)
		info, err := st.run(iter, ePrev, res)
		if err != nil {
			return err
		}
		res.TotalFockStats.Add(info.FockStat)
		res.History = append(res.History, info)
		res.Iterations = iter
		if opt.OnIteration != nil {
			opt.OnIteration(iter, res)
		}

		args := map[string]any{"iter": iter, "energy": info.Energy, "dE": info.DeltaE, "rmsD": info.RMSDens}
		if info.Sweeps > 0 {
			args["sweeps"] = info.Sweeps
		}
		sp.End(args)
		tel0.Counter("scf.iterations").Add(1)
		tel0.Gauge("scf.energy").Set(info.Energy)
		tel0.Gauge("scf.delta_e").Set(info.DeltaE)
		tel0.Gauge("scf.rms_dens").Set(info.RMSDens)

		if info.RMSDens < opt.ConvDens && math.Abs(info.DeltaE) < opt.ConvEnergy {
			res.Converged = true
			return nil
		}
		ePrev = info.Energy
	}
	return nil
}

// RunRHF performs a restricted Hartree-Fock calculation over the engine's
// basis on replicated matrices, using builder for the two-electron Fock
// matrices. Inside an MPI world every rank calls it collectively.
func RunRHF(eng *integrals.Engine, builder Builder, opt Options) (*Result, error) {
	one, err := newOneElectron(eng)
	if err != nil {
		return nil, err
	}
	return runDense(eng, one, 0, func(ds []*linalg.Matrix) ([]*linalg.Matrix, fock.Stats) {
		g, stats := builder(ds[0])
		return []*linalg.Matrix{g}, stats
	}, opt)
}

// guessFock returns the initial Fock matrix for the named guess.
func guessFock(name string, h, s *linalg.Matrix) (*linalg.Matrix, error) {
	switch name {
	case "", "core":
		return h, nil
	case "gwh":
		// Generalized Wolfsberg-Helmholz: F_ab = K S_ab (H_aa + H_bb)/2
		// with the conventional K = 1.75 off the diagonal.
		n := h.Rows
		g := linalg.NewSquare(n)
		const kGWH = 1.75
		for a := 0; a < n; a++ {
			g.Set(a, a, h.At(a, a))
			for b := 0; b < a; b++ {
				v := 0.5 * kGWH * s.At(a, b) * (h.At(a, a) + h.At(b, b))
				g.Set(a, b, v)
				g.Set(b, a, v)
			}
		}
		return g, nil
	default:
		return nil, fmt.Errorf("scf: unknown initial guess %q (want core or gwh)", name)
	}
}

// diagonalizeFock solves F C = eps S C through the Löwdin transform:
// F' = X^T F X, F' C' = eps C', C = X C'.
func diagonalizeFock(f, x *linalg.Matrix) ([]float64, *linalg.Matrix) {
	fp := linalg.TripleProduct(x, f)
	fp.Symmetrize() // clean numerical asymmetry before the eigensolver
	eps, cp := linalg.EigenSym(fp)
	return eps, linalg.Mul(x, cp)
}

func sumMatrices(a, b *linalg.Matrix) *linalg.Matrix {
	out := a.Clone()
	out.AxpyFrom(1, b)
	return out
}

// applyLevelShift adds gamma * (S - S D S / occ) to f in place. In the
// orthonormal basis this is gamma times the virtual-space projector
// (S D S / occ maps to the occupied projector), so every virtual orbital
// energy rises by gamma while occupied ones stay put — widening the
// effective gap that drives SCF oscillation.
func applyLevelShift(f, s, d *linalg.Matrix, gamma, occ float64) {
	sds := linalg.Mul(s, linalg.Mul(d, s))
	f.AxpyFrom(gamma, s)
	f.AxpyFrom(-gamma/occ, sds)
}

// --- DIIS (Pulay convergence acceleration) ---

type diisState struct {
	size   int
	focks  []*linalg.Matrix
	errors []*linalg.Matrix
}

func newDIIS() *diisState { return &diisState{size: denseDIISSize} }

// reset drops the extrapolation history — the watchdog's "diis-reset"
// rung, discarding Fock/error pairs poisoned by a corrupted or
// oscillating stretch of iterations.
func (st *diisState) reset() {
	st.focks = st.focks[:0]
	st.errors = st.errors[:0]
}

// record appends (F, e) with e = X^T (FDS - SDF) X to the history and
// returns the max-abs error element.
func (st *diisState) record(f, d, s, x *linalg.Matrix) float64 {
	fds := linalg.Mul(f, linalg.Mul(d, s))
	sdf := linalg.Mul(s, linalg.Mul(d, f))
	e := fds.Clone()
	e.AxpyFrom(-1, sdf)
	e = linalg.TripleProduct(x, e)

	errNorm := 0.0
	for _, v := range e.Data {
		if a := math.Abs(v); a > errNorm {
			errNorm = a
		}
	}

	st.focks = append(st.focks, f.Clone())
	st.errors = append(st.errors, e)
	if len(st.focks) > st.size {
		st.focks = st.focks[1:]
		st.errors = st.errors[1:]
	}
	return errNorm
}

// diisCoefficients solves the DIIS equations [B 1; 1 0] [c; lambda] =
// [0; 1] over the equally long histories of every spin, with
// B_ij = sum over spins of <e_i, e_j>: ONE coefficient vector for all of
// them, the textbook unrestricted form. (A solve per spin would
// extrapolate F_alpha and F_beta towards two different fictitious
// iterates, which stalls open shells: OH/STO-3G takes 137 iterations
// that way, 9 this way.) nil means no extrapolation this iteration: fewer
// than two entries, or a singular system, which also drops every history.
func diisCoefficients(spins []*diisState) []float64 {
	m := len(spins[0].focks)
	if m < 2 {
		return nil
	}
	coef := diisSolve(m, func(i, j int) float64 {
		v := 0.0
		for _, st := range spins {
			v += linalg.Dot(st.errors[i], st.errors[j])
		}
		return v
	})
	if coef == nil {
		for _, st := range spins {
			st.reset()
		}
	}
	return coef
}

// diisSolve solves the DIIS equations [B 1; 1 0] [c; lambda] = [0; 1]
// for m history entries, with B_ij = dot(i, j) for j <= i (B is
// symmetric), and returns c; nil when the system is singular.
func diisSolve(m int, dot func(i, j int) float64) []float64 {
	dim := m + 1
	bmat := linalg.NewSquare(dim)
	rhs := make([]float64, dim)
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			v := dot(i, j)
			bmat.Set(i, j, v)
			bmat.Set(j, i, v)
		}
		bmat.Set(i, m, 1)
		bmat.Set(m, i, 1)
	}
	rhs[m] = 1
	coef, err := linalg.SolveLinear(bmat, rhs)
	if err != nil {
		return nil
	}
	return coef[:m]
}

// combine returns the history's Fock matrices weighted by coef.
func (st *diisState) combine(coef []float64) *linalg.Matrix {
	out := linalg.NewSquare(st.focks[0].Rows)
	for i, c := range coef {
		out.AxpyFrom(c, st.focks[i])
	}
	return out
}

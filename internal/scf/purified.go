package scf

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/ddi"
	"repro/internal/distmat"
	"repro/internal/fock"
	"repro/internal/integrals"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// PurifiedOptions configures the distributed-data SCF driver
// (RunRHFPurified): a 2D-blocked world where the density, Fock and every
// iteration intermediate live as distmat tiles, and the density update
// is McWeeny/SP2 purification instead of a replicated eigensolve.
type PurifiedOptions struct {
	Ranks     int // MPI rank count; default 4
	BlockSize int // tile edge; 0 = distmat.DefaultBlockSize for the grid
	// CacheTiles / AccTiles bound the Fock build's per-rank staging
	// (density read cache, Fock write combiner) in tiles; 0 = twice the
	// block dimension each.
	CacheTiles int
	AccTiles   int
	// DIISSize is the orthonormal-basis DIIS history depth; default 4.
	// Purified DIIS uses the commutator [F', D'] in the orthonormal basis
	// and reports its Frobenius norm (NOT the max-abs element the
	// replicated driver reports) as IterInfo.DIISErr: a Frobenius norm is
	// a deterministic global sum, a distributed max is not needed.
	DIISSize int
	// PurifyTol is the idempotency threshold ||X - X^2||_F for each
	// purification; default 1e-12. MaxSweeps caps sweeps per SCF
	// iteration; default 100.
	PurifyTol float64
	MaxSweeps int

	Fock fock.Config
	SCF  Options

	// Deadline / Grace bound blocking runtime operations, as in
	// ResilientOptions; Deadline defaults to 30s.
	Deadline  time.Duration
	Grace     time.Duration
	Telemetry *telemetry.Session
}

func (o PurifiedOptions) withDefaults() PurifiedOptions {
	if o.Ranks <= 0 {
		o.Ranks = 4
	}
	if o.DIISSize == 0 {
		o.DIISSize = 4
	}
	if o.PurifyTol == 0 {
		o.PurifyTol = 1e-12
	}
	if o.MaxSweeps == 0 {
		o.MaxSweeps = 100
	}
	if o.Deadline == 0 {
		o.Deadline = 30 * time.Second
	}
	if o.Telemetry == nil {
		o.Telemetry = o.SCF.Telemetry
	}
	o.SCF = o.SCF.withDefaults()
	return o
}

// PurifyInfo reports the distributed run's layout, purification effort
// and memory/traffic accounting. All values are identical on every rank.
type PurifyInfo struct {
	GridPr, GridPc int
	BlockSize      int
	NumBlocks      int // blocks per matrix dimension

	TotalSweeps   int   // purification sweeps across all SCF iterations
	SweepsPerIter []int // one entry per SCF iteration

	// PeakRankBytes is the largest steady-state per-rank working set over
	// all ranks: every distributed matrix's local tiles plus the Fock
	// build's bounded reader/accumulator high-water marks. The one-time
	// dense setup (S, H, X before scatter) and the terminal gather of the
	// final density are deliberately excluded: both are O(N^2) moments
	// outside the iteration loop, and the paper's MCDRAM wall is about
	// what must stay resident while iterating.
	PeakRankBytes int64
	// ReplicatedBytes is what the replicated driver keeps resident per
	// rank for the same problem (5 square matrices: S, H, F, D and the
	// orthogonalizer), for comparison against PeakRankBytes.
	ReplicatedBytes int64

	// One-sided traffic summed over ranks and matrices for the whole run.
	GetBytes, PutBytes, AccBytes int64
}

// RunRHFPurified performs a restricted Hartree-Fock calculation with
// fully distributed iteration state: the Fock builder accumulates into
// distributed tiles (fock.TiledBuild) and the density update is SP2
// purification (distmat.Purify) — no replicated N x N matrix and no
// eigensolve inside the SCF loop.
//
// The one-time setup (overlap, core Hamiltonian, Löwdin orthogonalizer)
// is computed densely on every rank and scattered; those replicated
// copies are released before the loop starts. The converged Result
// carries the gathered density, energies and per-iteration history;
// Result.C and Result.OrbitalEnergies are nil — purification never forms
// orbitals, which is exactly why it scales past the eigensolve. The
// convergence watchdog is not wired in: purification has no level-shift
// or damping analogue here, and a diverging run surfaces as a
// purification failure instead.
func RunRHFPurified(eng *integrals.Engine, sch *integrals.Schwarz, opt PurifiedOptions) (*Result, *PurifyInfo, error) {
	opt = opt.withDefaults()
	mol := eng.Basis.Mol
	nelec := mol.NumElectrons()
	if nelec%2 != 0 {
		return nil, nil, fmt.Errorf("scf: RHF needs an even electron count, molecule %q has %d", mol.Name, nelec)
	}
	nocc := nelec / 2
	n := eng.Basis.NumBF
	if nocc > n {
		return nil, nil, fmt.Errorf("scf: %d occupied orbitals exceed basis size %d", nocc, n)
	}

	results := make([]*Result, opt.Ranks)
	infos := make([]*PurifyInfo, opt.Ranks)
	errs := make([]error, opt.Ranks)
	_, runErr := mpi.RunWithOptions(opt.Ranks, mpi.RunOptions{
		Deadline:  opt.Deadline,
		Grace:     opt.Grace,
		Telemetry: opt.Telemetry,
	}, func(c *mpi.Comm) {
		results[c.Rank()], infos[c.Rank()], errs[c.Rank()] = purifiedRank(c, eng, sch, nocc, opt)
	})
	if runErr != nil {
		return nil, nil, fmt.Errorf("scf: purified world: %w", runErr)
	}
	// All state driving control flow is deterministic and collective, so
	// every rank lands on the same outcome; rank 0 speaks for the world.
	return results[0], infos[0], errs[0]
}

// purifiedRank is one rank's SCF loop over distributed state.
func purifiedRank(c *mpi.Comm, eng *integrals.Engine, sch *integrals.Schwarz,
	nocc int, opt PurifiedOptions) (*Result, *PurifyInfo, error) {
	sopt := opt.SCF
	n := eng.Basis.NumBF
	dx := ddi.New(c)
	g := distmat.NewGrid(c.Rank(), c.Size())

	// One-time dense setup, identical on every rank (deterministic
	// integrals), then scattered and released.
	s := eng.Overlap()
	h := eng.CoreHamiltonian()
	x, err := linalg.LowdinOrthogonalizer(s, sopt.LinDepTol)
	if err != nil {
		return nil, nil, fmt.Errorf("scf: %w", err)
	}

	mk := func() *distmat.BlockMat { return distmat.New(g, dx, n, opt.BlockSize) }
	dX, dH, dF, dFp := mk(), mk(), mk(), mk()
	dD, dDn, dDp, dT := mk(), mk(), mk(), mk()
	dXsq, dE := mk(), mk()
	mats := []*distmat.BlockMat{dX, dH, dF, dFp, dD, dDn, dDp, dT, dXsq, dE}
	histFp := make([]*distmat.BlockMat, 0, opt.DIISSize)
	histE := make([]*distmat.BlockMat, 0, opt.DIISSize)
	for i := 0; i < opt.DIISSize; i++ {
		f, e := mk(), mk()
		histFp = append(histFp, f)
		histE = append(histE, e)
		mats = append(mats, f, e)
	}
	if err := dX.ScatterDense(x); err != nil {
		return nil, nil, err
	}
	if err := dH.ScatterDense(h); err != nil {
		return nil, nil, err
	}
	warmStart := sopt.InitialDensity != nil
	if warmStart {
		if sopt.InitialDensity.Rows != n || sopt.InitialDensity.Cols != n {
			return nil, nil, fmt.Errorf("scf: initial density is %dx%d for a %d-function basis",
				sopt.InitialDensity.Rows, sopt.InitialDensity.Cols, n)
		}
		if err := dD.ScatterDense(sopt.InitialDensity); err != nil {
			return nil, nil, err
		}
	} else {
		// Core guess, purification style: D = 0 makes the first iteration's
		// Fock the bare core Hamiltonian, so purifying it yields exactly
		// the core-guess density — no eigensolve, no special case.
		dD.Zero()
	}
	s, h, x = nil, nil, nil

	reader := distmat.NewTileReader(dD, opt.CacheTiles)
	accum := distmat.NewTileAccum(dF, opt.AccTiles)

	res := &Result{NuclearRepulsion: eng.Basis.Mol.NuclearRepulsion()}
	info := &PurifyInfo{
		GridPr: g.Pr, GridPc: g.Pc, BlockSize: dD.BS, NumBlocks: dD.NB,
		ReplicatedBytes: 5 * int64(n) * int64(n) * 8,
	}
	diisLive := 0 // filled history entries (ring over histFp/histE)
	ePrev := math.Inf(1)
	tel := sopt.Telemetry
	rank := c.Rank()
	cancelAgree := sopt.CancelAgree
	if cancelAgree == nil && sopt.Context != nil && sopt.Context.Done() != nil {
		// Ranks are goroutines over one context: a local poll could split
		// the world at an iteration boundary, so agreement is mandatory.
		cancelAgree = CollectiveCancel(c)
	}

	for iter := 1; iter <= sopt.MaxIter; iter++ {
		if cancelAgree != nil {
			local := sopt.Context != nil && sopt.Context.Err() != nil
			if cancelAgree(local) {
				var cause error
				if sopt.Context != nil {
					cause = context.Cause(sopt.Context)
				}
				if tel != nil && rank == 0 {
					tel.Counter("scf.canceled").Add(1)
				}
				return res, info, &CanceledError{Iter: iter, Cause: cause}
			}
		}
		endIter := tel.SpanArgsAtEnd("scf.iter", "iteration", rank, 0)

		// G(D) into distributed tiles; F = H + G. The first cold-start
		// iteration skips the build outright: D = 0 means G = 0.
		dF.Zero()
		var stats fock.Stats
		if iter > 1 || warmStart {
			reader.Reset()
			stats = fock.TiledBuild(dx, eng, sch, fock.RHF(reader.At), []*distmat.TileAccum{accum}, opt.Fock)
			distmat.UnfoldLower(dF)
		}
		res.TotalFockStats.Add(stats)
		distmat.Axpby(dF, dH, 1, 1)

		eElec := 0.5 * (distmat.Dot(dD, dH) + distmat.Dot(dD, dF))
		eTot := eElec + res.NuclearRepulsion

		// F' = X F X (Löwdin transform, two distributed multiplies).
		distmat.MatMul(dT, dX, dF)
		distmat.MatMul(dFp, dT, dX)

		// Orthonormal-basis DIIS over distributed history. The error is
		// the commutator [F', D'] (D' from the previous purification); the
		// B system is assembled from deterministic distributed dots, so
		// every rank solves the identical replicated (m+1) x (m+1) system.
		diisErr := 0.0
		if !sopt.DisableDI && iter > 1 {
			slot := (iter - 2) % opt.DIISSize
			distmat.MatMul(dT, dFp, dDp)
			distmat.AntiSymmetrize(dE, dT)
			diisErr = distmat.FrobeniusNorm(dE)
			distmat.Copy(histFp[slot], dFp)
			distmat.Copy(histE[slot], dE)
			if diisLive < opt.DIISSize {
				diisLive++
			}
			if diisLive >= 2 {
				if coefs := diisSolve(histE[:diisLive]); coefs != nil {
					distmat.LinearCombine(dFp, coefs, histFp[:diisLive])
				} else {
					diisLive = 0 // singular system: drop history, keep raw F'
				}
			}
		}

		st, perr := distmat.Purify(dDp, dFp, dXsq, nocc, opt.PurifyTol, opt.MaxSweeps)
		info.TotalSweeps += st.Sweeps
		info.SweepsPerIter = append(info.SweepsPerIter, st.Sweeps)
		if perr != nil {
			return res, info, fmt.Errorf("scf: iteration %d: %w", iter, perr)
		}

		// Back to the AO basis: D_new = X D' X.
		distmat.MatMul(dT, dX, dDp)
		distmat.MatMul(dDn, dT, dX)

		rms := distmat.RMSDiff(dDn, dD)
		dE2 := eTot - ePrev
		res.History = append(res.History, IterInfo{
			Energy: eTot, DeltaE: dE2, RMSDens: rms, DIISErr: diisErr, FockStat: stats,
		})
		res.Iterations = iter
		res.Energy = eTot
		res.Electronic = eElec

		endIter(map[string]any{"iter": iter, "energy": eTot, "dE": dE2,
			"rmsD": rms, "sweeps": st.Sweeps})
		if tel != nil && rank == 0 {
			tel.Counter("scf.iterations").Add(1)
			tel.Gauge("scf.energy").Set(eTot)
			tel.Gauge("scf.delta_e").Set(dE2)
			tel.Gauge("scf.rms_dens").Set(rms)
		}

		distmat.Copy(dD, dDn)
		if rms < sopt.ConvDens && math.Abs(dE2) < sopt.ConvEnergy {
			res.Converged = true
			break
		}
		ePrev = eTot
	}

	// Steady-state per-rank peak, recorded BEFORE the terminal gather
	// (see PurifyInfo.PeakRankBytes), then maxed across ranks through a
	// counter window so the gauge reports the worst rank.
	var local int64
	for _, m := range mats {
		local += m.LocalBytes()
	}
	local += reader.PeakBytes() + accum.PeakBytes()
	c.CounterStore("purify.peak", rank, local)
	c.Barrier()
	for r := 0; r < c.Size(); r++ {
		if v := c.CounterLoad("purify.peak", r); v > info.PeakRankBytes {
			info.PeakRankBytes = v
		}
	}
	c.Barrier()
	var get, put, acc int64
	for _, m := range mats {
		mg, mp, ma := m.Traffic()
		get, put, acc = get+mg, put+mp, acc+ma
	}
	info.GetBytes = dx.GSumI(get)
	info.PutBytes = dx.GSumI(put)
	info.AccBytes = dx.GSumI(acc)
	if tel != nil && rank == 0 {
		tel.Gauge("distmat.peak_rank_bytes").Set(float64(info.PeakRankBytes))
		tel.Gauge("distmat.total_sweeps").Set(float64(info.TotalSweeps))
	}

	d, gerr := dD.GatherVerified()
	if gerr != nil {
		return res, info, gerr
	}
	res.D = d
	return res, info, nil
}

// diisSolve assembles and solves the DIIS system [B 1; 1 0][c;λ] = [0;1]
// with B_ij = <e_i, e_j> over distributed error matrices. Returns nil on
// a singular system. Collective (the dots are); the solve itself is a
// replicated (m+1)-dimensional problem identical on every rank.
func diisSolve(errsHist []*distmat.BlockMat) []float64 {
	m := len(errsHist)
	dim := m + 1
	bmat := linalg.NewSquare(dim)
	rhs := make([]float64, dim)
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			v := distmat.Dot(errsHist[i], errsHist[j])
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

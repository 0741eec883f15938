package scf

// Resilient distributed SCF: the ABFT half of the fault-tolerance story.
// RunRHFPurifiedResilient runs the purified (distributed-data) SCF over
// checksum-redundant matrices (distmat.NewABFT) and, when a rank dies
// mid-iteration, does NOT restart from a checkpoint or fall back to the
// replicated path: the survivors' windows stay readable, every tile the
// dead rank owned is reconstructed from the parity tiles
// (distmat.Salvage), and a shrunken world resumes the interrupted
// iteration in place — the density, core Hamiltonian and orthogonalizer
// re-sharded onto the new owner map, the energy trajectory continued
// from the exact iteration the failure hit.
//
// The same parity invariant also guards against silent corruption while
// the run is healthy: every purification sweep audits the checksums
// (distmat.AuditParity) and repairs any resident bit flip before it
// propagates through the squaring, and the terminal gather re-audits
// before handing back a replicated density.

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/ddi"
	"repro/internal/distmat"
	"repro/internal/fock"
	"repro/internal/integrals"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// PurifiedResilientOptions configures RunRHFPurifiedResilient.
type PurifiedResilientOptions struct {
	PurifiedOptions

	// MaxRecoveries caps reconstruct-and-resume transitions; default 3.
	MaxRecoveries int
	// Fault injects failures into the FIRST attempt only — resumed
	// attempts run clean, as a failed node stays out of the job.
	Fault *mpi.FaultPlan
}

func (o PurifiedResilientOptions) withDefaults() PurifiedResilientOptions {
	o.PurifiedOptions = o.PurifiedOptions.withDefaults()
	if o.MaxRecoveries == 0 {
		o.MaxRecoveries = 3
	}
	return o
}

// PurifiedRecovery reports how a resilient purified run survived.
type PurifiedRecovery struct {
	Attempts        int   // mpi world launches (1 = no failure)
	Recoveries      int   // reconstruct-and-resume transitions
	RanksPerAttempt []int // world size of each attempt
	FailedRanks     []int // world ranks lost across all attempts
	// ReconstructedTiles counts tiles rebuilt from parity (not read from
	// a surviving owner) across all recoveries.
	ReconstructedTiles int64
	// ResumedIter is the SCF iteration the last recovery resumed at.
	ResumedIter int
	// AuditMismatches / RepairedTiles snapshot the checksum audit's SDC
	// tallies from the run telemetry (zero when Telemetry is unset).
	AuditMismatches int64
	RepairedTiles   int64
	Reports         []*mpi.RunReport // one per attempt
}

// purifiedSnapshot is one rank's resume point, registered at the top of
// every SCF iteration: the iteration about to run, the accumulated
// trajectory, and handles to the three matrices a resume needs — the
// orthogonalizer, the core Hamiltonian, and the iteration's INPUT
// density. The density is double-buffered by pointer swap (never copied
// in place), so the snapshot's dD stays bit-stable for the whole
// iteration it feeds: by the time any rank overwrites that buffer, every
// rank has registered the next iteration's snapshot.
type purifiedSnapshot struct {
	iter          int
	ePrev         float64
	hist          []IterInfo
	totalSweeps   int
	sweepsPerIter []int

	dX, dH, dD *distmat.BlockMat
}

// purifiedSalvageStore collects per-rank snapshots; after a failure the
// driver picks the most-advanced snapshot among the survivors.
type purifiedSalvageStore struct {
	mu     sync.Mutex
	byRank map[int]purifiedSnapshot
}

func (s *purifiedSalvageStore) register(rank int, snap purifiedSnapshot) {
	s.mu.Lock()
	s.byRank[rank] = snap
	s.mu.Unlock()
}

// best returns the max-iteration snapshot registered by a rank outside
// dead. Max is the consistent choice: a snapshot at iteration k+1 exists
// only once every rank finished iteration k's collectives, so its input
// density is fully written.
func (s *purifiedSalvageStore) best(dead map[int]bool) (purifiedSnapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out purifiedSnapshot
	found := false
	for rank, snap := range s.byRank {
		if dead[rank] {
			continue
		}
		if !found || snap.iter > out.iter {
			out = snap
			found = true
		}
	}
	return out, found
}

// purifiedResume carries everything a shrunken world needs to continue:
// the chosen snapshot, one salvager per matrix (reading the dead world's
// windows through a surviving rank's handles), the tile edge pinned from
// the old layout (a new grid would pick a different default, and the
// salvaged tiles are bs-shaped), and the membership epoch for the ddi
// windows.
type purifiedResume struct {
	snap                purifiedSnapshot
	salvX, salvH, salvD *distmat.Salvage
	bs                  int
	epoch               int64
}

// RunRHFPurifiedResilient performs the distributed purified RHF of
// RunRHFPurified over ABFT matrices, surviving rank death by parity
// reconstruction per the file comment. It returns the result, the
// layout/effort info of the final (successful) attempt, and the recovery
// trace; the error is non-nil only when recovery was exhausted.
func RunRHFPurifiedResilient(eng *integrals.Engine, sch *integrals.Schwarz,
	opt PurifiedResilientOptions) (*Result, *PurifyInfo, *PurifiedRecovery, error) {
	opt = opt.withDefaults()
	mol := eng.Basis.Mol
	nelec := mol.NumElectrons()
	if nelec%2 != 0 {
		return nil, nil, nil, fmt.Errorf("scf: RHF needs an even electron count, molecule %q has %d", mol.Name, nelec)
	}
	nocc := nelec / 2
	n := eng.Basis.NumBF
	if nocc > n {
		return nil, nil, nil, fmt.Errorf("scf: %d occupied orbitals exceed basis size %d", nocc, n)
	}

	rec := &PurifiedRecovery{}
	tel := opt.Telemetry
	fillAudit := func() {
		if tel != nil {
			rec.AuditMismatches = tel.Counter("distmat.abft.mismatches").Value()
			rec.RepairedTiles = tel.Counter("distmat.abft.repaired_tiles").Value()
		}
	}
	ranks := opt.Ranks
	var resume *purifiedResume
	var lastErr error
	for {
		rec.Attempts++
		rec.RanksPerAttempt = append(rec.RanksPerAttempt, ranks)
		var fault *mpi.FaultPlan
		if rec.Attempts == 1 {
			fault = opt.Fault
		}
		store := &purifiedSalvageStore{byRank: map[int]purifiedSnapshot{}}
		results := make([]*Result, ranks)
		infos := make([]*PurifyInfo, ranks)
		errs := make([]error, ranks)
		report, runErr := mpi.RunWithOptions(ranks, mpi.RunOptions{
			Deadline: opt.Deadline, Grace: opt.Grace, Fault: fault, Telemetry: tel,
		}, func(c *mpi.Comm) {
			results[c.Rank()], infos[c.Rank()], errs[c.Rank()] =
				purifiedResilientRank(c, eng, sch, nocc, opt.PurifiedOptions, store, resume)
		})
		rec.Reports = append(rec.Reports, report)
		if resume != nil {
			// The attempt that just ran consumed the salvagers; bank its
			// reconstruction tally whether it succeeded or not.
			nrec := resume.salvX.Reconstructed() + resume.salvH.Reconstructed() + resume.salvD.Reconstructed()
			rec.ReconstructedTiles += nrec
			if tel != nil {
				tel.Counter("distmat.abft.reconstructed_tiles").Add(nrec)
			}
		}

		if runErr == nil {
			for _, r := range report.Completed {
				if results[r] != nil && errs[r] == nil {
					fillAudit()
					return results[r], infos[r], rec, nil
				}
			}
			// No rank failure, yet no usable result: a deterministic SCF
			// error — retrying cannot help.
			for _, err := range errs {
				if err != nil {
					fillAudit()
					return nil, nil, rec, err
				}
			}
			fillAudit()
			return nil, nil, rec, fmt.Errorf("scf: resilient purified run produced no result")
		}
		lastErr = runErr

		deadList := report.DeadRanks()
		lost := len(deadList)
		if lost == 0 {
			// Pure-timeout failure: nobody is provably dead. Shrink by one
			// anyway (the wedged rank fences itself out next time); with an
			// empty dead set the salvage degenerates to a pure re-shard.
			lost = 1
		}
		if ranks-lost < 1 {
			fillAudit()
			return nil, nil, rec, fmt.Errorf("scf: no ranks left to resume with: %w", lastErr)
		}
		if rec.Recoveries >= opt.MaxRecoveries {
			fillAudit()
			return nil, nil, rec, fmt.Errorf("scf: recovery budget (%d) exhausted: %w", opt.MaxRecoveries, lastErr)
		}
		deadSet := make(map[int]bool, len(deadList))
		for _, r := range deadList {
			deadSet[r] = true
		}
		snap, ok := store.best(deadSet)
		if !ok {
			fillAudit()
			return nil, nil, rec, fmt.Errorf("scf: no surviving snapshot to salvage from: %w", lastErr)
		}
		salvX, err := distmat.NewSalvage(snap.dX, deadList)
		if err == nil {
			var salvH, salvD *distmat.Salvage
			salvH, err = distmat.NewSalvage(snap.dH, deadList)
			if err == nil {
				salvD, err = distmat.NewSalvage(snap.dD, deadList)
				if err == nil {
					resume = &purifiedResume{
						snap: snap, salvX: salvX, salvH: salvH, salvD: salvD,
						bs: snap.dD.BS, epoch: int64(rec.Attempts),
					}
				}
			}
		}
		if err != nil {
			fillAudit()
			return nil, nil, rec, fmt.Errorf("scf: salvage setup: %w", err)
		}
		rec.Recoveries++
		rec.ResumedIter = snap.iter
		rec.FailedRanks = append(rec.FailedRanks, deadList...)
		ranks -= lost
		if tel != nil {
			tel.Counter("recovery.abft_resumes").Add(1)
			tel.Instant("recovery.resume", "abft-resume", telemetry.DriverPid, 0,
				map[string]any{"attempt": rec.Attempts, "ranks": ranks,
					"lost": lost, "iter": snap.iter})
		}
	}
}

// purifiedResilientRank is one rank's SCF loop over ABFT-distributed
// state — structurally purifiedRank with four deltas: matrices carry
// checksum tiles, the input density is double-buffered by pointer swap,
// every iteration registers a resume snapshot, and a non-nil resume
// rebuilds dX/dH/dD from the dead world's parities instead of scattering
// a dense setup.
func purifiedResilientRank(c *mpi.Comm, eng *integrals.Engine, sch *integrals.Schwarz,
	nocc int, opt PurifiedOptions, store *purifiedSalvageStore, resume *purifiedResume) (*Result, *PurifyInfo, error) {
	sopt := opt.SCF
	n := eng.Basis.NumBF
	var dx *ddi.Context
	if resume != nil {
		dx = ddi.NewShrunk(c, resume.epoch)
	} else {
		dx = ddi.New(c)
	}
	g := distmat.NewGrid(c.Rank(), c.Size())
	bs := opt.BlockSize
	if resume != nil {
		bs = resume.bs
	}

	mk := func() *distmat.BlockMat { return distmat.NewABFT(g, dx, n, bs) }
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

	res := &Result{NuclearRepulsion: eng.Basis.Mol.NuclearRepulsion()}
	info := &PurifyInfo{
		GridPr: g.Pr, GridPc: g.Pc, BlockSize: dD.BS, NumBlocks: dD.NB,
		ReplicatedBytes: 5 * int64(n) * int64(n) * 8,
	}
	startIter := 1
	ePrev := math.Inf(1)
	warmStart := false

	if resume != nil {
		// Re-shard from the dead world: every owned tile of X, H and the
		// input density resolves through the salvagers (surviving owners
		// read directly, lost tiles peeled out of parity); PutTile on an
		// ABFT matrix rebuilds the new world's parities as a side effect.
		buf := make([]float64, dD.BS*dD.BS)
		for bi := 0; bi < dD.NB; bi++ {
			for bj := 0; bj < dD.NB; bj++ {
				if !dD.OwnsTile(bi, bj) {
					continue
				}
				for _, t := range []struct {
					s *distmat.Salvage
					m *distmat.BlockMat
				}{{resume.salvX, dX}, {resume.salvH, dH}, {resume.salvD, dD}} {
					if err := t.s.Resolve(bi, bj, buf); err != nil {
						return nil, nil, fmt.Errorf("scf: abft resume: %w", err)
					}
					t.m.PutTile(bi, bj, buf)
				}
			}
		}
		c.Barrier()
		res.History = append([]IterInfo(nil), resume.snap.hist...)
		res.Iterations = len(res.History)
		if len(res.History) > 0 {
			last := res.History[len(res.History)-1]
			res.Energy = last.Energy
			res.Electronic = last.Energy - res.NuclearRepulsion
		}
		info.TotalSweeps = resume.snap.totalSweeps
		info.SweepsPerIter = append([]int(nil), resume.snap.sweepsPerIter...)
		startIter = resume.snap.iter
		ePrev = resume.snap.ePrev
	} else {
		s := eng.Overlap()
		h := eng.CoreHamiltonian()
		x, err := linalg.LowdinOrthogonalizer(s, sopt.LinDepTol)
		if err != nil {
			return nil, nil, fmt.Errorf("scf: %w", err)
		}
		if err := dX.ScatterDense(x); err != nil {
			return nil, nil, err
		}
		if err := dH.ScatterDense(h); err != nil {
			return nil, nil, err
		}
		warmStart = sopt.InitialDensity != nil
		if warmStart {
			if sopt.InitialDensity.Rows != n || sopt.InitialDensity.Cols != n {
				return nil, nil, fmt.Errorf("scf: initial density is %dx%d for a %d-function basis",
					sopt.InitialDensity.Rows, sopt.InitialDensity.Cols, n)
			}
			if err := dD.ScatterDense(sopt.InitialDensity); err != nil {
				return nil, nil, err
			}
		} else {
			dD.Zero()
		}
	}

	reader := distmat.NewTileReader(dD, opt.CacheTiles)
	accum := distmat.NewTileAccum(dF, opt.AccTiles)

	// DIIS ring: diisStart is the first iteration whose error entered the
	// current history, so slots stay aligned with histE[:diisLive] across
	// resets (a resumed run restarts the history — the previous world's
	// purified density is gone, and a zero-error placeholder would let
	// DIIS lock onto a stale Fock).
	diisLive := 0
	diisStart := startIter + 1
	tel := sopt.Telemetry
	rank := c.Rank()

	for iter := startIter; iter <= sopt.MaxIter; iter++ {
		store.register(rank, purifiedSnapshot{
			iter: iter, ePrev: ePrev,
			hist:          append([]IterInfo(nil), res.History...),
			totalSweeps:   info.TotalSweeps,
			sweepsPerIter: append([]int(nil), info.SweepsPerIter...),
			dX:            dX, dH: dH, dD: dD,
		})
		endIter := tel.SpanArgsAtEnd("scf.iter", "iteration", rank, 0)

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

		distmat.MatMul(dT, dX, dF)
		distmat.MatMul(dFp, dT, dX)

		diisErr := 0.0
		if !sopt.DisableDI && iter >= diisStart {
			slot := (iter - diisStart) % opt.DIISSize
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
					diisStart = iter + 1
				}
			}
		}

		st, perr := distmat.Purify(dDp, dFp, dXsq, nocc, opt.PurifyTol, opt.MaxSweeps)
		info.TotalSweeps += st.Sweeps
		info.SweepsPerIter = append(info.SweepsPerIter, st.Sweeps)
		if perr != nil {
			return res, info, fmt.Errorf("scf: iteration %d: %w", iter, perr)
		}

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

		// Double-buffer swap: the new density becomes the next iteration's
		// input without ever overwriting the buffer the current snapshot
		// points at mid-iteration.
		dD, dDn = dDn, dD
		reader.Retarget(dD)
		if rms < sopt.ConvDens && math.Abs(dE2) < sopt.ConvEnergy {
			res.Converged = true
			break
		}
		ePrev = eTot
	}

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

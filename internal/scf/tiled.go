package scf

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
)

// The tiled step: a 2D-blocked world where the density, Fock and every
// iteration intermediate live as distmat tiles, the Fock builder
// accumulates into distributed tiles (fock.TiledBuild) and the density
// update is SP2 purification (distmat.Purify) — no replicated N x N
// matrix and no eigensolve inside the loop. The convergence watchdog is
// not wired in: purification has no level-shift or damping analogue
// here, and a diverging run surfaces as a purification failure instead.
//
// Over checksum-redundant matrices (distmat.NewABFT) the same step is
// the ABFT half of the fault-tolerance story: every purification sweep
// audits the parity tiles and repairs a resident bit flip before it
// propagates through the squaring, and every iteration registers a
// resume snapshot so that, when a rank dies, the supervisor's
// parity-salvage policy reconstructs the tiles the dead rank owned
// (distmat.Salvage) and a shrunken world resumes the interrupted
// iteration in place.

// SP2 purification: idempotency threshold ||X - X^2||_F and sweep cap
// per SCF iteration.
const (
	purifyTol       = 1e-12
	purifyMaxSweeps = 100
)

// PurifyInfo reports a tiled run's layout, purification effort and
// memory/traffic accounting. All values are identical on every rank.
type PurifyInfo struct {
	GridPr, GridPc int
	BlockSize      int
	NumBlocks      int // blocks per matrix dimension

	TotalSweeps int // purification sweeps across all SCF iterations

	// PeakRankBytes is the largest steady-state per-rank working set over
	// all ranks: every distributed matrix's local tiles plus the Fock
	// build's bounded reader/accumulator high-water marks. The one-time
	// dense setup (S, H, X before scatter) and the terminal gather of the
	// final density are deliberately excluded: both are O(N^2) moments
	// outside the iteration loop, and the paper's MCDRAM wall is about
	// what must stay resident while iterating.
	PeakRankBytes int64
	// ReplicatedBytes is what the dense step keeps resident per rank for
	// the same problem (5 square matrices: S, H, F, D and the
	// orthogonalizer), for comparison against PeakRankBytes.
	ReplicatedBytes int64

	// One-sided traffic summed over ranks and matrices for the whole run.
	GetBytes, PutBytes, AccBytes int64
}

// tiledSnapshot is one rank's resume point, registered at the top of
// every iteration over ABFT tiles: the iteration about to run, the
// accumulated trajectory, and handles to the three matrices a resume
// needs — the orthogonalizer, the core Hamiltonian, and the iteration's
// INPUT density. The density is double-buffered by pointer swap (never
// copied in place), so the snapshot's dD stays bit-stable for the whole
// iteration it feeds: by the time any rank overwrites that buffer, every
// rank has registered the next iteration's snapshot.
type tiledSnapshot struct {
	iter  int
	ePrev float64
	hist  []IterInfo

	dX, dH, dD *distmat.BlockMat
}

// salvageStore collects per-rank snapshots; after a failure the
// supervisor picks the most-advanced snapshot among the survivors.
type salvageStore struct {
	mu     sync.Mutex
	byRank map[int]tiledSnapshot
}

func (s *salvageStore) register(rank int, snap tiledSnapshot) {
	s.mu.Lock()
	s.byRank[rank] = snap
	s.mu.Unlock()
}

// best returns the max-iteration snapshot registered by a rank outside
// dead. Max is the consistent choice: a snapshot at iteration k+1 exists
// only once every rank finished iteration k's collectives, so its input
// density is fully written.
func (s *salvageStore) best(dead []int) (tiledSnapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out tiledSnapshot
	found := false
	for rank, snap := range s.byRank {
		isDead := false
		for _, d := range dead {
			isDead = isDead || d == rank
		}
		if !isDead && (!found || snap.iter > out.iter) {
			out, found = snap, true
		}
	}
	return out, found
}

// tiledResume carries everything a shrunken world needs to continue:
// the chosen snapshot, one salvager per matrix (reading the dead world's
// windows through a surviving rank's handles; the tile edge stays pinned
// to the old layout's, since the salvaged tiles are bs-shaped and a new
// grid would pick a different default).
type tiledResume struct {
	snap tiledSnapshot
	salv [3]*distmat.Salvage // X, H, D
}

// newTiledResume sets up the salvagers over the best surviving snapshot.
func newTiledResume(store *salvageStore, dead []int) (*tiledResume, error) {
	snap, ok := store.best(dead)
	if !ok {
		return nil, fmt.Errorf("no surviving snapshot to salvage from")
	}
	r := &tiledResume{snap: snap}
	for i, m := range []*distmat.BlockMat{snap.dX, snap.dH, snap.dD} {
		var err error
		if r.salv[i], err = distmat.NewSalvage(m, dead); err != nil {
			return nil, fmt.Errorf("salvage setup: %w", err)
		}
	}
	return r, nil
}

// reconstructed is the number of tiles the resume rebuilt from parity
// (not read from a surviving owner).
func (r *tiledResume) reconstructed() int64 {
	return r.salv[0].Reconstructed() + r.salv[1].Reconstructed() + r.salv[2].Reconstructed()
}

type tiledStep struct {
	opt      Options
	alg      Algorithm // the fock.build span's variant name
	dx       *ddi.Context
	eng      *integrals.Engine
	sch      *integrals.Schwarz
	cfg      fock.Config
	nocc     int
	info     *PurifyInfo
	store    *salvageStore // nil: no resume snapshots
	warm     bool          // the first iteration has a density to build from
	dX, dH   *distmat.BlockMat
	dF, dFp  *distmat.BlockMat
	dD, dDn  *distmat.BlockMat
	dDp, dT  *distmat.BlockMat
	dXsq, dE *distmat.BlockMat
	histFp   []*distmat.BlockMat
	histE    []*distmat.BlockMat
	reader   *distmat.TileReader
	accum    *distmat.TileAccum
	// DIIS ring: diisStart is the first iteration whose error entered the
	// current history, so slots stay aligned with histE[:diisLive] across
	// resets (a resumed run restarts the history — the previous world's
	// purified density is gone, and a zero-error placeholder would let
	// DIIS lock onto a stale Fock).
	diisLive, diisStart int
}

// runTiled is one rank's loop over distributed state; opt carries the
// rank's trace lane and, under a cancelable context, the collective
// cancelAgree (ranks are goroutines over one context: a local poll could
// split the world at an iteration boundary). The one-time setup
// (overlap, core Hamiltonian, Löwdin orthogonalizer) is computed densely
// on every rank and scattered, then released — or, with a resume,
// re-sharded out of the dead world's parities. The Result carries the
// gathered density, energies and per-iteration history; C and
// OrbitalEnergies stay nil.
func runTiled(c *mpi.Comm, eng *integrals.Engine, sch *integrals.Schwarz, cfg fock.Config, nocc int,
	p Plan, opt Options, store *salvageStore, resume *tiledResume) (*Result, error) {
	opt = opt.withDefaults()
	n := eng.Basis.NumBF
	dx := ddi.New(c)
	bs := p.BlockSize
	if resume != nil {
		_, bs = resume.salv[0].Dims()
	}
	g := distmat.NewGrid(c.Rank(), c.Size())
	mk := func() *distmat.BlockMat {
		if p.Algorithm == AlgPurifiedABFT {
			return distmat.NewABFT(g, dx, n, bs)
		}
		return distmat.New(g, dx, n, bs)
	}
	st := &tiledStep{
		opt: opt, alg: p.Algorithm, dx: dx, eng: eng, sch: sch, cfg: cfg, nocc: nocc, store: store,
		warm: opt.InitialDensity != nil,
		dX:   mk(), dH: mk(), dF: mk(), dFp: mk(),
		dD: mk(), dDn: mk(), dDp: mk(), dT: mk(),
		dXsq: mk(), dE: mk(),
	}
	mats := []*distmat.BlockMat{st.dX, st.dH, st.dF, st.dFp, st.dD, st.dDn, st.dDp, st.dT, st.dXsq, st.dE}
	for i := 0; i < tiledDIISSize; i++ {
		f, e := mk(), mk()
		st.histFp = append(st.histFp, f)
		st.histE = append(st.histE, e)
		mats = append(mats, f, e)
	}

	res := &Result{NuclearRepulsion: eng.Basis.Mol.NuclearRepulsion()}
	st.info = &PurifyInfo{
		GridPr: g.Pr, GridPc: g.Pc, BlockSize: st.dD.BS, NumBlocks: st.dD.NB,
		ReplicatedBytes: 5 * int64(n) * int64(n) * 8,
	}
	res.Tiles = st.info
	start, ePrev := 1, math.Inf(1)

	if resume != nil {
		// Re-shard from the dead world: every owned tile of X, H and the
		// input density resolves through the salvagers (surviving owners
		// read directly, lost tiles peeled out of parity); PutTile on an
		// ABFT matrix rebuilds the new world's parities as a side effect.
		buf := make([]float64, st.dD.BS*st.dD.BS)
		dst := [3]*distmat.BlockMat{st.dX, st.dH, st.dD}
		for bi := 0; bi < st.dD.NB; bi++ {
			for bj := 0; bj < st.dD.NB; bj++ {
				if !st.dD.OwnsTile(bi, bj) {
					continue
				}
				for i, salv := range resume.salv {
					if err := salv.Resolve(bi, bj, buf); err != nil {
						return nil, fmt.Errorf("scf: abft resume: %w", err)
					}
					dst[i].PutTile(bi, bj, buf)
				}
			}
		}
		c.Barrier()
		res.History = append([]IterInfo(nil), resume.snap.hist...)
		res.Iterations = len(res.History)
		for _, it := range res.History {
			res.TotalFockStats.Add(it.FockStat)
			st.info.TotalSweeps += it.Sweeps
			res.Energy = it.Energy
			res.Electronic = it.Energy - res.NuclearRepulsion
		}
		start, ePrev = resume.snap.iter, resume.snap.ePrev
	} else {
		// One-time dense setup, identical on every rank (deterministic
		// integrals), then scattered and released.
		x, err := linalg.LowdinOrthogonalizer(eng.Overlap(), linDepTol)
		if err != nil {
			return nil, fmt.Errorf("scf: %w", err)
		}
		if err := st.dX.ScatterDense(x); err != nil {
			return nil, err
		}
		if err := st.dH.ScatterDense(eng.CoreHamiltonian()); err != nil {
			return nil, err
		}
		if d0 := opt.InitialDensity; d0 != nil {
			if d0.Rows != n || d0.Cols != n {
				return nil, fmt.Errorf("scf: initial density is %dx%d for a %d-function basis", d0.Rows, d0.Cols, n)
			}
			if err := st.dD.ScatterDense(d0); err != nil {
				return nil, err
			}
		} else {
			// Core guess, purification style: D = 0 makes the first iteration's
			// Fock the bare core Hamiltonian, so purifying it yields exactly
			// the core-guess density — no eigensolve, no special case.
			st.dD.Zero()
		}
	}
	st.diisStart = start + 1
	st.reader = distmat.NewTileReader(st.dD, p.CacheTiles)
	st.accum = distmat.NewTileAccum(st.dF, p.AccTiles)

	if err := iterate(opt, st, res, start, ePrev); err != nil {
		return res, err
	}

	// Steady-state per-rank peak, recorded BEFORE the terminal gather
	// (see PurifyInfo.PeakRankBytes), then maxed across ranks so the gauge
	// reports the worst rank.
	local := st.reader.PeakBytes() + st.accum.PeakBytes()
	var get, put, acc int64
	for _, m := range mats {
		local += m.LocalBytes()
		mg, mp, ma := m.Traffic()
		get, put, acc = get+mg, put+mp, acc+ma
	}
	peak := []float64{float64(local)}
	c.Allreduce(mpi.Max, peak, peak)
	st.info.PeakRankBytes = int64(peak[0])
	st.info.GetBytes = dx.GSumI(get)
	st.info.PutBytes = dx.GSumI(put)
	st.info.AccBytes = dx.GSumI(acc)
	tel0 := opt.rank0()
	tel0.Gauge("distmat.peak_rank_bytes").Set(float64(st.info.PeakRankBytes))
	tel0.Gauge("distmat.total_sweeps").Set(float64(st.info.TotalSweeps))

	d, err := st.dD.GatherVerified()
	if err != nil {
		return res, err
	}
	res.D = d
	return res, nil
}

func (st *tiledStep) run(iter int, ePrev float64, res *Result) (IterInfo, error) {
	if st.store != nil {
		st.store.register(st.opt.rank, tiledSnapshot{
			iter: iter, ePrev: ePrev,
			hist: append([]IterInfo(nil), res.History...),
			dX:   st.dX, dH: st.dH, dD: st.dD,
		})
	}
	dF, dFp, dDp, dT, dE := st.dF, st.dFp, st.dDp, st.dT, st.dE

	// G(D) into distributed tiles; F = H + G. The first cold-start
	// iteration skips the build outright: D = 0 means G = 0.
	dF.Zero()
	var stats fock.Stats
	if iter > 1 || st.warm {
		st.reader.Reset()
		done := buildSpan(st.opt.Telemetry, string(st.alg), st.opt.rank)
		stats = fock.TiledBuild(st.dx, st.eng, st.sch, fock.RHF(fock.FromTiles(st.reader)), []*distmat.TileAccum{st.accum}, st.cfg)
		done(stats)
		distmat.UnfoldLower(dF)
	}
	distmat.Axpby(dF, st.dH, 1, 1)

	eElec := 0.5 * (distmat.Dot(st.dD, st.dH) + distmat.Dot(st.dD, dF))
	eTot := eElec + res.NuclearRepulsion

	// F' = X F X (Löwdin transform, two distributed multiplies).
	distmat.MatMul(dT, st.dX, dF)
	distmat.MatMul(dFp, dT, st.dX)

	// Orthonormal-basis DIIS over distributed history. The error is the
	// commutator [F', D'] (D' from the previous purification); the B
	// system is assembled from deterministic distributed dots, so every
	// rank solves the identical replicated (m+1) x (m+1) system.
	diisErr := 0.0
	if !st.opt.disableDI && iter >= st.diisStart {
		slot := (iter - st.diisStart) % tiledDIISSize
		distmat.MatMul(dT, dFp, dDp)
		distmat.AntiSymmetrize(dE, dT)
		diisErr = distmat.FrobeniusNorm(dE)
		distmat.Copy(st.histFp[slot], dFp)
		distmat.Copy(st.histE[slot], dE)
		if st.diisLive < tiledDIISSize {
			st.diisLive++
		}
		if st.diisLive >= 2 {
			hist := st.histE[:st.diisLive]
			if coefs := diisSolve(len(hist), func(i, j int) float64 { return distmat.Dot(hist[i], hist[j]) }); coefs != nil {
				distmat.LinearCombine(dFp, coefs, st.histFp[:st.diisLive])
			} else {
				st.diisLive = 0 // singular system: drop history, keep raw F'
				st.diisStart = iter + 1
			}
		}
	}

	ps, perr := distmat.Purify(dDp, dFp, st.dXsq, st.nocc, purifyTol, purifyMaxSweeps)
	st.info.TotalSweeps += ps.Sweeps
	if perr != nil {
		return IterInfo{}, fmt.Errorf("scf: iteration %d: %w", iter, perr)
	}

	// Back to the AO basis: D_new = X D' X.
	distmat.MatMul(dT, st.dX, dDp)
	distmat.MatMul(st.dDn, dT, st.dX)
	rms := distmat.RMSDiff(st.dDn, st.dD)

	// Double-buffer swap: the new density becomes the next iteration's
	// input without ever overwriting the buffer the current snapshot
	// points at mid-iteration.
	st.dD, st.dDn = st.dDn, st.dD
	st.reader.Retarget(st.dD)
	res.Energy = eTot
	res.Electronic = eElec
	return IterInfo{
		Energy: eTot, DeltaE: eTot - ePrev, RMSDens: rms, DIISErr: diisErr,
		FockStat: stats, Sweeps: ps.Sweeps,
	}, nil
}

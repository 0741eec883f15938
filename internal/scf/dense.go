package scf

import (
	"fmt"
	"math"

	"repro/internal/fock"
	"repro/internal/integrals"
	"repro/internal/integrity"
	"repro/internal/linalg"
)

// The dense step: replicated N x N matrices, Fock diagonalization in the
// Löwdin-orthogonalized basis, DIIS with one coefficient vector for every
// spin, Fock validation with quarantine-and-rebuild, and the convergence
// watchdog. Restricted Hartree-Fock is one spin channel holding two
// electrons per orbital; unrestricted is two channels holding one, with
//
//	F_alpha = H + J(D_alpha + D_beta) - K(D_alpha)
//	F_beta  = H + J(D_alpha + D_beta) - K(D_beta)
//
// The paper's conclusion singles out UHF as a method whose Fock-assembly
// structure is identical to RHF's and therefore inherits the hybrid
// parallelization directly; here it also inherits the loop.

// Integrity validation tolerances. Fock and density matrices are
// symmetric by construction; parallel summation order perturbs them at
// roundoff (~1e-14 relative), so 1e-8 catches real one-sided corruption
// with a six-decade margin. The electron-count trace is exact to
// diagonalization roundoff; 1e-6 absolute keeps false positives at zero
// for any basis this code handles.
const (
	fockSymTol   = 1e-8
	densSymTol   = 1e-8
	densTraceTol = 1e-6
)

// channelBuilder computes the two-electron matrices of one iteration
// from ONE sweep over the ERIs: [G(D)] for the restricted density list
// [D], and [J(D_t), K(D_alpha), K(D_beta)] for the unrestricted list
// [D_t, D_alpha, D_beta].
type channelBuilder func(ds []*linalg.Matrix) ([]*linalg.Matrix, fock.Stats)

// channels maps a density list to the digest channels that ride the
// quartet sweep.
func channels(ds []*linalg.Matrix) []fock.Channel {
	if len(ds) == 1 {
		return fock.RHF(fock.Dense(ds[0]))
	}
	return fock.UHF(fock.Dense(ds[0]), fock.Dense(ds[1]), fock.Dense(ds[2]))
}

// occupations returns the occupied-orbital count of each spin channel:
// one channel for a restricted run (multiplicity 0), alpha and beta for
// an unrestricted run of the given multiplicity (2S+1).
func occupations(eng *integrals.Engine, multiplicity int) ([]int, error) {
	mol := eng.Basis.Mol
	nelec := mol.NumElectrons()
	n := eng.Basis.NumBF
	if multiplicity == 0 {
		if nelec%2 != 0 {
			return nil, fmt.Errorf("scf: RHF needs an even electron count, molecule %q has %d", mol.Name, nelec)
		}
		if nelec/2 > n {
			return nil, fmt.Errorf("scf: %d occupied orbitals exceed basis size %d", nelec/2, n)
		}
		return []int{nelec / 2}, nil
	}
	if multiplicity < 1 {
		return nil, fmt.Errorf("scf: multiplicity must be >= 1, got %d", multiplicity)
	}
	excess := multiplicity - 1 // number of unpaired electrons
	if (nelec-excess)%2 != 0 || excess > nelec {
		return nil, fmt.Errorf("scf: multiplicity %d impossible for %d electrons", multiplicity, nelec)
	}
	na := (nelec + excess) / 2
	if na > n {
		return nil, fmt.Errorf("scf: %d alpha electrons exceed basis size %d", na, n)
	}
	return []int{na, nelec - na}, nil
}

// spinChannel is one spin's iteration state.
type spinChannel struct {
	nocc int
	d    *linalg.Matrix
	eps  []float64
	c    *linalg.Matrix
}

type denseStep struct {
	opt     Options
	build   channelBuilder
	h, s, x *linalg.Matrix
	occ     float64 // electrons per occupied orbital: 2 restricted, 1 unrestricted
	spins   []spinChannel
	diis    []*diisState // one history per spin, extrapolated jointly
	wd      *watchdogState
}

// oneElectron is a run's one-electron set: the overlap S, the core
// Hamiltonian H = T + V and the Löwdin orthogonalizer X. Run builds it
// once, before any world launches, and every rank of every attempt reads
// the same matrices: nothing writes into them and no SDC site reaches
// them.
type oneElectron struct{ s, h, x *linalg.Matrix }

// newOneElectron is the one place the SCF evaluates S and H.
func newOneElectron(eng *integrals.Engine) (*oneElectron, error) {
	s := eng.Overlap()
	h := eng.CoreHamiltonian()
	x, err := linalg.LowdinOrthogonalizer(s, linDepTol)
	if err != nil {
		return nil, fmt.Errorf("scf: %w", err)
	}
	return &oneElectron{s: s, h: h, x: x}, nil
}

// runDense runs the loop on replicated matrices for the given spin case.
func runDense(eng *integrals.Engine, one *oneElectron, multiplicity int, build channelBuilder, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	noccs, err := occupations(eng, multiplicity)
	if err != nil {
		return nil, err
	}
	n := eng.Basis.NumBF
	h, s, x := one.h, one.s, one.x
	st := &denseStep{opt: opt, build: build, h: h, s: s, x: x, occ: 2, spins: make([]spinChannel, len(noccs))}
	if multiplicity != 0 {
		st.occ = 1
	}
	if !opt.disableWatchdog {
		st.wd = &watchdogState{}
	}

	// Initial densities: a supervisor restart state (one density per spin),
	// a warm-start total density (an unrestricted run splits it by electron
	// share), or the guess Fock diagonalized in the orthogonal basis (both
	// spins start from the same orbitals; the differing occupations
	// polarize an open shell).
	warm := opt.warm
	if warm == nil && opt.InitialDensity != nil {
		warm = []*linalg.Matrix{opt.InitialDensity}
	}
	if len(warm) == 1 && len(noccs) == 2 {
		nelec := float64(eng.Basis.Mol.NumElectrons())
		total := warm[0]
		warm = nil
		for _, nocc := range noccs {
			d := total.Clone()
			d.Scale(float64(nocc) / nelec)
			warm = append(warm, d)
		}
	}
	if warm != nil && len(warm) != len(noccs) {
		return nil, fmt.Errorf("scf: restart state has %d spin densities, this run needs %d", len(warm), len(noccs))
	}
	var c0 *linalg.Matrix
	if warm == nil {
		g0, err := guessFock(opt.Guess, h, s)
		if err != nil {
			return nil, err
		}
		_, c0 = diagonalizeFock(g0, x)
	}
	for i, nocc := range noccs {
		sp := spinChannel{nocc: nocc}
		st.diis = append(st.diis, newDIIS())
		if warm != nil {
			if warm[i].Rows != n || warm[i].Cols != n {
				return nil, fmt.Errorf("scf: initial density is %dx%d for a %d-function basis",
					warm[i].Rows, warm[i].Cols, n)
			}
			sp.d = warm[i].Clone()
		} else {
			sp.d = densityFromC(c0, nocc, st.occ)
		}
		st.spins[i] = sp
	}

	res := &Result{NuclearRepulsion: eng.Basis.Mol.NuclearRepulsion()}
	if multiplicity != 0 {
		res.Spin = &Spin{NumAlpha: noccs[0], NumBeta: noccs[1]}
	}
	err = iterate(opt, st, res, 1, math.Inf(1))
	if res.Spin != nil && res.Spin.DAlpha != nil {
		res.Spin.SSquared = sSquared(res.Spin.DAlpha, res.Spin.DBeta, s, noccs[0], noccs[1])
	}
	return res, err
}

// buildValidated runs the Fock build behind the integrity gate: a
// replica that fails validation is quarantined and rebuilt once. Every
// rank sees the identical (allreduced) matrices, so the recompute
// decision is collective without communication.
func (st *denseStep) buildValidated(iter int, ds []*linalg.Matrix, res *Result) (g []*linalg.Matrix, stats fock.Stats, recomputed bool, err error) {
	check := func(g []*linalg.Matrix) error {
		for _, m := range g {
			if verr := integrity.CheckFock(m, fockSymTol); verr != nil {
				return verr
			}
		}
		return nil
	}
	g, stats = st.build(ds)
	verr := check(g)
	if verr == nil {
		return g, stats, false, nil
	}
	tel0 := st.opt.rank0()
	tel0.Counter("sdc.detected").Add(1)
	tel0.Counter("sdc.detected.fock").Add(1)
	tel0.Counter("integrity.fock.recomputed").Add(1)
	tel0.Instant("integrity", "fock-quarantine", st.opt.rank, 0,
		map[string]any{"iter": iter, "cause": verr.Error()})
	g, stats2 := st.build(ds)
	res.TotalFockStats.Add(stats2)
	if verr := check(g); verr != nil {
		return nil, stats, true, fmt.Errorf("scf: Fock build failed validation twice in iteration %d (persistent corruption): %w", iter, verr)
	}
	return g, stats, true, nil
}

func (st *denseStep) run(iter int, ePrev float64, res *Result) (IterInfo, error) {
	opt, wd, h, s := st.opt, st.wd, st.h, st.s
	tel0 := opt.rank0()
	restricted := len(st.spins) == 1

	// Densities handed to the build, and the Fock matrix and electronic
	// energy of each spin from the CURRENT densities.
	ds := []*linalg.Matrix{st.spins[0].d}
	if !restricted {
		dt := st.spins[0].d.Clone()
		dt.AxpyFrom(1, st.spins[1].d)
		ds = []*linalg.Matrix{dt, st.spins[0].d, st.spins[1].d}
	}
	g, stats, recomputed, err := st.buildValidated(iter, ds, res)
	if err != nil {
		return IterInfo{}, err
	}
	fs := make([]*linalg.Matrix, len(st.spins))
	var eElec float64
	if restricted {
		fs[0] = sumMatrices(h, g[0])
		eElec = 0.5 * linalg.Dot(ds[0], sumMatrices(h, fs[0]))
	} else {
		// E_elec = 1/2 [ Dt.H + Da.Fa + Db.Fb ]
		eElec = linalg.Dot(ds[0], h)
		for i := range st.spins {
			fs[i] = sumMatrices(h, g[0])
			fs[i].AxpyFrom(-1, g[1+i])
			eElec += linalg.Dot(st.spins[i].d, fs[i])
		}
		eElec *= 0.5
	}
	eTot := eElec + res.NuclearRepulsion

	// Density step: DIIS over all spins, then level shift, eigensolve and
	// damping spin by spin.
	rms, diisErr := 0.0, 0.0
	if !opt.disableDI && (wd == nil || !wd.diisOff()) {
		for i, hist := range st.diis {
			diisErr = math.Max(diisErr, hist.record(fs[i], st.spins[i].d, s, st.x))
		}
		if coef := diisCoefficients(st.diis); coef != nil {
			for i, hist := range st.diis {
				fs[i] = hist.combine(coef)
			}
		}
	}
	dNew := make([]*linalg.Matrix, len(st.spins))
	for i := range st.spins {
		sp, f := &st.spins[i], fs[i]
		if wd != nil {
			if gamma := wd.shift(); gamma > 0 {
				applyLevelShift(f, s, sp.d, gamma, st.occ)
			}
		}
		sp.eps, sp.c = diagonalizeFock(f, st.x)
		dNew[i] = densityFromC(sp.c, sp.nocc, st.occ)
		if wd != nil {
			if a := wd.damping(); a > 0 {
				for k := range dNew[i].Data {
					dNew[i].Data[k] = (1-a)*dNew[i].Data[k] + a*sp.d.Data[k]
				}
			}
		}
		rms = math.Max(rms, dNew[i].RMSDiff(sp.d))
	}
	dE := eTot - ePrev

	degrade := ""
	if wd != nil {
		degrade = wd.observe(dE, rms)
	}
	for i, sp := range st.spins {
		verr := integrity.CheckDensity(dNew[i], s, int(st.occ)*sp.nocc, densSymTol, densTraceTol)
		if verr == nil {
			continue
		}
		// A bad density past a verified Fock: no cheap recompute exists, so
		// force the ladder a rung instead.
		tel0.Counter("sdc.detected").Add(1)
		tel0.Counter("sdc.detected.density").Add(1)
		tel0.Instant("integrity", "density-invalid", opt.rank, 0,
			map[string]any{"iter": iter, "cause": verr.Error()})
		if wd != nil && degrade == "" {
			degrade = wd.escalate()
		}
	}
	if degrade != "" {
		if degrade == wdLevelNames[wdDIISReset] {
			for _, hist := range st.diis {
				hist.reset()
			}
		}
		tel0.Counter("integrity.watchdog.escalations").Add(1)
		tel0.Instant("integrity", "watchdog-"+degrade, opt.rank, 0,
			map[string]any{"iter": iter, "dE": dE, "rmsD": rms})
		// A watchdog escalation is a postmortem moment: snapshot the tail
		// of the trace ring, which ends with the instant just recorded, so
		// the spans leading up to it survive the run.
		tel0.DumpFlight("watchdog-" + degrade)
	}

	for i := range st.spins {
		st.spins[i].d = dNew[i]
	}
	res.Energy = eTot
	res.Electronic = eElec
	if restricted {
		res.D, res.C, res.OrbitalEnergies = dNew[0], st.spins[0].c, st.spins[0].eps
	} else {
		res.D = sumMatrices(dNew[0], dNew[1])
		res.Spin.EpsAlpha, res.Spin.EpsBeta = st.spins[0].eps, st.spins[1].eps
		res.Spin.DAlpha, res.Spin.DBeta = dNew[0], dNew[1]
	}
	return IterInfo{
		Energy: eTot, DeltaE: dE, RMSDens: rms, DIISErr: diisErr, FockStat: stats,
		Degrade: degrade, Recomputed: recomputed,
	}, nil
}

// sSquared evaluates <S^2> = S(S+1) + Nb - tr(Da S Db S); deviations
// above the exact S(S+1) indicate spin contamination.
func sSquared(dA, dB, s *linalg.Matrix, na, nb int) float64 {
	sz := float64(na-nb) / 2
	exact := sz * (sz + 1)
	cross := linalg.Mul(linalg.Mul(dA, s), linalg.Mul(dB, s)).Trace()
	return exact + float64(nb) - cross
}

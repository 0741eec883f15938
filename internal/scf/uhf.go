package scf

import (
	"fmt"
	"math"

	"repro/internal/fock"
	"repro/internal/integrals"
	"repro/internal/linalg"
)

// Unrestricted Hartree-Fock. The paper's conclusion singles out UHF (with
// GVB, DFT, and CPHF) as a method whose Fock-assembly structure is
// identical to RHF's and therefore inherits the hybrid parallelization
// directly; this driver demonstrates that on the same Fock presets.

// UHFResult is a converged (or exhausted) unrestricted SCF calculation.
type UHFResult struct {
	Converged    bool
	Iterations   int
	Energy       float64 // total
	Electronic   float64
	NuclearRep   float64
	NumAlpha     int
	NumBeta      int
	EpsAlpha     []float64
	EpsBeta      []float64
	DAlpha       *linalg.Matrix
	DBeta        *linalg.Matrix
	SSquared     float64 // <S^2> expectation value (spin contamination probe)
	TotalStats   fock.Stats
	EnergyByIter []float64
}

// JKBuilder produces the Coulomb matrix J(dj) and the two exchange
// matrices K(dka), K(dkb) for one UHF iteration from ONE sweep over the
// ERIs (fock.UHF: three channels on the same quartet walker the
// restricted builders use).
type JKBuilder func(dj, dka, dkb *linalg.Matrix) (j, ka, kb *linalg.Matrix, stats fock.Stats)

// SerialJKBuilder wraps the serial sweep as a JKBuilder.
func SerialJKBuilder(eng *integrals.Engine, sch *integrals.Schwarz, tau float64) JKBuilder {
	if tau == 0 {
		tau = fock.DefaultTau
	}
	return func(dj, dka, dkb *linalg.Matrix) (*linalg.Matrix, *linalg.Matrix, *linalg.Matrix, fock.Stats) {
		g, stats := fock.SerialBuildN(eng, sch, fock.UHF(dj.At, dka.At, dkb.At), tau)
		return g[0], g[1], g[2], stats
	}
}

// RunUHF performs an unrestricted Hartree-Fock calculation with the given
// spin multiplicity (2S+1), building serially through the J/K channels:
//
//	F_alpha = H + J(D_alpha + D_beta) - K(D_alpha)
//	F_beta  = H + J(D_alpha + D_beta) - K(D_beta)
func RunUHF(eng *integrals.Engine, multiplicity int, opt Options) (*UHFResult, error) {
	sch := integrals.ComputeSchwarz(eng)
	return RunUHFWithBuilder(eng, multiplicity, SerialJKBuilder(eng, sch, 0), opt)
}

// RunUHFWithBuilder is RunUHF with a pluggable J/K builder (serial or one
// of the parallel algorithms).
func RunUHFWithBuilder(eng *integrals.Engine, multiplicity int, builder JKBuilder, opt Options) (*UHFResult, error) {
	opt = opt.withDefaults()
	mol := eng.Basis.Mol
	nelec := mol.NumElectrons()
	if multiplicity < 1 {
		return nil, fmt.Errorf("scf: multiplicity must be >= 1, got %d", multiplicity)
	}
	excess := multiplicity - 1 // number of unpaired electrons
	if (nelec-excess)%2 != 0 || excess > nelec {
		return nil, fmt.Errorf("scf: multiplicity %d impossible for %d electrons", multiplicity, nelec)
	}
	na := (nelec + excess) / 2
	nb := nelec - na
	n := eng.Basis.NumBF
	if na > n {
		return nil, fmt.Errorf("scf: %d alpha electrons exceed basis size %d", na, n)
	}

	s := eng.Overlap()
	h := eng.CoreHamiltonian()
	x, err := linalg.LowdinOrthogonalizer(s, opt.LinDepTol)
	if err != nil {
		return nil, fmt.Errorf("scf: %w", err)
	}

	// Core guess for both spins; a slight perturbation on beta breaks
	// alpha/beta symmetry so open shells can polarize.
	epsA, cA := diagonalizeFock(h, x)
	cB := cA.Clone()
	dA := spinDensity(cA, na)
	dB := spinDensity(cB, nb)

	res := &UHFResult{NuclearRep: mol.NuclearRepulsion(), NumAlpha: na, NumBeta: nb}
	diisA := newDIIS(opt.DIISSize)
	diisB := newDIIS(opt.DIISSize)
	ePrev := math.Inf(1)
	var epsB []float64

	for iter := 1; iter <= opt.MaxIter; iter++ {
		dt := dA.Clone()
		dt.AxpyFrom(1, dB)
		j, kA, kB, st := builder(dt, dA, dB)
		res.TotalStats.Add(st)

		fA := h.Clone()
		fA.AxpyFrom(1, j)
		fA.AxpyFrom(-1, kA)
		fB := h.Clone()
		fB.AxpyFrom(1, j)
		fB.AxpyFrom(-1, kB)

		// E_elec = 1/2 [ Dt.H + Da.Fa + Db.Fb ]
		eElec := 0.5 * (linalg.Dot(dt, h) + linalg.Dot(dA, fA) + linalg.Dot(dB, fB))
		eTot := eElec + res.NuclearRep

		if !opt.DisableDI {
			fA, _ = diisA.extrapolate(fA, dA, s, x)
			fB, _ = diisB.extrapolate(fB, dB, s, x)
		}

		epsA, cA = diagonalizeFock(fA, x)
		epsB, cB = diagonalizeFock(fB, x)
		dAn := spinDensity(cA, na)
		dBn := spinDensity(cB, nb)
		rms := math.Max(dAn.RMSDiff(dA), dBn.RMSDiff(dB))
		dE := eTot - ePrev

		res.Iterations = iter
		res.Energy = eTot
		res.Electronic = eElec
		res.EnergyByIter = append(res.EnergyByIter, eTot)
		res.EpsAlpha, res.EpsBeta = epsA, epsB
		res.DAlpha, res.DBeta = dAn, dBn

		if rms < opt.ConvDens && math.Abs(dE) < opt.ConvEnergy {
			res.Converged = true
			break
		}
		dA, dB = dAn, dBn
		ePrev = eTot
	}
	res.SSquared = sSquared(res.DAlpha, res.DBeta, s, na, nb)
	return res, nil
}

// spinDensity is the single-spin density D = C_occ C_occ^T (no factor 2).
func spinDensity(c *linalg.Matrix, nocc int) *linalg.Matrix {
	n := c.Rows
	d := linalg.NewSquare(n)
	for a := 0; a < n; a++ {
		for b := 0; b <= a; b++ {
			sum := 0.0
			for o := 0; o < nocc; o++ {
				sum += c.At(a, o) * c.At(b, o)
			}
			d.Set(a, b, sum)
			d.Set(b, a, sum)
		}
	}
	return d
}

// sSquared evaluates <S^2> = S(S+1) + Nb - tr(Da S Db S); deviations
// above the exact S(S+1) indicate spin contamination.
func sSquared(dA, dB, s *linalg.Matrix, na, nb int) float64 {
	sz := float64(na-nb) / 2
	exact := sz * (sz + 1)
	cross := linalg.Mul(linalg.Mul(dA, s), linalg.Mul(dB, s)).Trace()
	return exact + float64(nb) - cross
}

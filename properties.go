package repro

import (
	"repro/internal/basis"
	"repro/internal/ddi"
	"repro/internal/fock"
	"repro/internal/integrals"
	"repro/internal/mpi"
	"repro/internal/scf"
)

// UHFResult is a converged unrestricted Hartree-Fock calculation.
type UHFResult = scf.UHFResult

// RunUHF runs an unrestricted Hartree-Fock calculation with the given
// spin multiplicity (2S+1) — the open-shell method the paper's conclusion
// lists as inheriting the hybrid Fock-build structure directly.
func RunUHF(mol *Molecule, basisName string, multiplicity int, opt SCFOptions) (*UHFResult, error) {
	b, err := basis.Build(mol, basisName)
	if err != nil {
		return nil, err
	}
	return scf.RunUHF(integrals.NewEngine(b), multiplicity, opt)
}

// Properties are the standard post-SCF observables.
type Properties struct {
	MullikenCharges []float64  // per atom, in e
	Dipole          [3]float64 // atomic units (e*bohr)
	DipoleDebye     float64
}

// AnalyzeRHF computes Mulliken charges and the dipole moment from a
// converged RHF result on mol/basisName (the same inputs passed to
// RunRHF or RunParallelRHF).
func AnalyzeRHF(mol *Molecule, basisName string, res *Result) (Properties, error) {
	b, err := basis.Build(mol, basisName)
	if err != nil {
		return Properties{}, err
	}
	eng := integrals.NewEngine(b)
	mu := scf.DipoleMoment(eng, res.D)
	return Properties{
		MullikenCharges: scf.MullikenCharges(eng, res.D),
		Dipole:          mu,
		DipoleDebye:     scf.DipoleDebye(mu),
	}, nil
}

// MP2Result is a second-order Møller-Plesset correlation correction.
type MP2Result = scf.MP2Result

// RunMP2 computes the closed-shell MP2 correlation energy on top of a
// converged RHF result (same mol/basisName as the RHF call). Post-HF
// methods like MP2 are the reason the paper optimizes Hartree-Fock: HF
// supplies their reference wavefunction.
func RunMP2(mol *Molecule, basisName string, res *Result) (*MP2Result, error) {
	b, err := basis.Build(mol, basisName)
	if err != nil {
		return nil, err
	}
	return scf.RunMP2(integrals.NewEngine(b), res)
}

// RunParallelUHF runs an unrestricted Hartree-Fock calculation with one
// of the paper's three algorithms carrying the J/K channels (see
// DESIGN.md section 6: the paper's UHF claim made concrete). All ranks
// compute the identical result; rank 0's is returned.
func RunParallelUHF(mol *Molecule, basisName string, multiplicity int,
	cfg ParallelConfig, opt SCFOptions) (*UHFResult, error) {
	if cfg.Algorithm == "" {
		cfg.Algorithm = SharedFock
	}
	if cfg.Ranks <= 0 {
		cfg.Ranks = 2
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 2
	}
	b, err := basis.Build(mol, basisName)
	if err != nil {
		return nil, err
	}
	eng := integrals.NewEngine(b)
	sch := integrals.ComputeSchwarz(eng)
	cache := integrals.NewPairCache(eng, 0)

	results := make([]*UHFResult, cfg.Ranks)
	errs := make([]error, cfg.Ranks)
	_, runErr := mpi.RunWithOptions(cfg.Ranks,
		mpi.RunOptions{Deadline: cfg.Deadline, Grace: cfg.Grace, Telemetry: opt.Telemetry},
		func(c *mpi.Comm) {
			builder := scf.ParallelJKBuilder(cfg.Algorithm, ddi.New(c), eng, sch,
				fock.Config{Threads: cfg.Threads, Quartets: cache})
			res, err := scf.RunUHFWithBuilder(eng, multiplicity, builder, opt)
			results[c.Rank()] = res
			errs[c.Rank()] = err
		})
	if runErr != nil {
		return nil, runErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results[0], nil
}

// OptimizeResult is a converged geometry optimization.
type OptimizeResult = scf.OptimizeResult

// OptimizeGeometry relaxes a molecule to its RHF equilibrium geometry
// with central-difference gradients (paper Section 3: the SCF energy's
// primary use is locating equilibrium structures).
func OptimizeGeometry(mol *Molecule, basisName string, opt SCFOptions) (*OptimizeResult, error) {
	return scf.Optimize(mol, scf.OptimizeOptions{SCF: opt, BasisName: basisName})
}

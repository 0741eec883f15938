package repro

import "repro/internal/scf"

// Properties are the standard post-SCF observables.
type Properties struct {
	MullikenCharges []float64  // per atom, in e
	Dipole          [3]float64 // atomic units (e*bohr)
	DipoleDebye     float64
}

// AnalyzeRHF computes Mulliken charges and the dipole moment from a
// converged RHF result on mol/basisName (the same inputs passed to Run).
func AnalyzeRHF(mol *Molecule, basisName string, res *Result) (Properties, error) {
	eng, err := engineFor(mol, basisName)
	if err != nil {
		return Properties{}, err
	}
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
// converged RHF result (same mol/basisName as the Run call). Post-HF
// methods like MP2 are the reason the paper optimizes Hartree-Fock: HF
// supplies their reference wavefunction.
func RunMP2(mol *Molecule, basisName string, res *Result) (*MP2Result, error) {
	eng, err := engineFor(mol, basisName)
	if err != nil {
		return nil, err
	}
	return scf.RunMP2(eng, res)
}

// OptimizeResult is a converged geometry optimization.
type OptimizeResult = scf.OptimizeResult

// OptimizeGeometry relaxes a molecule to its RHF equilibrium geometry
// with central-difference gradients (paper Section 3: the SCF energy's
// primary use is locating equilibrium structures).
func OptimizeGeometry(mol *Molecule, basisName string, opt SCFOptions) (*OptimizeResult, error) {
	return scf.Optimize(mol, scf.OptimizeOptions{SCF: opt, BasisName: basisName})
}

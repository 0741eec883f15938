package scf

import (
	"context"
	"fmt"
	"math"

	"repro/internal/basis"
	"repro/internal/integrals"
	"repro/internal/molecule"
)

// Geometry optimization on the RHF surface. The paper's Section 3 names
// equilibrium geometries as the primary use of the SCF energy; this
// optimizer locates them with central-difference gradients (no analytic
// derivative integrals needed) and steepest descent with backtracking —
// adequate for the small systems real execution targets. Every gradient
// component costs two SCF calculations, all funneled through the same
// Run every other caller uses, on the production ERI source, and
// warm-started from the density of the last accepted geometry.

// OptimizeOptions controls the geometry search.
type OptimizeOptions struct {
	SCF          Options
	BasisName    string
	MaxSteps     int     // default 50
	GradTol      float64 // max |dE/dx| in hartree/bohr, default 5e-4
	Step         float64 // finite-difference displacement (bohr), default 5e-3
	InitialAlpha float64 // initial line-search step (bohr^2/hartree), default 1.0
}

func (o OptimizeOptions) withDefaults() OptimizeOptions {
	if o.MaxSteps == 0 {
		o.MaxSteps = 50
	}
	if o.GradTol == 0 {
		o.GradTol = 5e-4
	}
	if o.Step == 0 {
		o.Step = 5e-3
	}
	if o.InitialAlpha == 0 {
		o.InitialAlpha = 1.0
	}
	if o.BasisName == "" {
		o.BasisName = "sto-3g"
	}
	return o
}

// OptimizeResult is a geometry optimization outcome.
type OptimizeResult struct {
	Converged   bool
	Steps       int
	Energy      float64
	MaxGradient float64
	Molecule    *molecule.Molecule
	EnergyTrace []float64
}

// energyAt runs a serial RHF on a geometry and returns the converged
// result.
func energyAt(mol *molecule.Molecule, basisName string, opt Options) (*Result, error) {
	b, err := basis.Build(mol, basisName)
	if err != nil {
		return nil, err
	}
	eng := integrals.NewEngine(b)
	res, err := Run(context.Background(), eng, integrals.ComputeSchwarz(eng),
		integrals.NewPairCache(eng, 0), Plan{SCF: opt})
	if err != nil {
		return nil, err
	}
	if !res.Converged {
		return nil, fmt.Errorf("scf: SCF did not converge during optimization")
	}
	return res, nil
}

// NumericalGradient returns dE/dR (hartree/bohr) for every atomic
// coordinate by central differences.
func NumericalGradient(mol *molecule.Molecule, basisName string, opt Options, h float64) ([][3]float64, error) {
	grad := make([][3]float64, len(mol.Atoms))
	for a := range mol.Atoms {
		for ax := 0; ax < 3; ax++ {
			plus := cloneMol(mol)
			plus.Atoms[a].Pos[ax] += h
			rp, err := energyAt(plus, basisName, opt)
			if err != nil {
				return nil, err
			}
			minus := cloneMol(mol)
			minus.Atoms[a].Pos[ax] -= h
			rm, err := energyAt(minus, basisName, opt)
			if err != nil {
				return nil, err
			}
			grad[a][ax] = (rp.Energy - rm.Energy) / (2 * h)
		}
	}
	return grad, nil
}

func cloneMol(m *molecule.Molecule) *molecule.Molecule {
	out := &molecule.Molecule{Name: m.Name, Charge: m.Charge}
	out.Atoms = append([]molecule.Atom(nil), m.Atoms...)
	return out
}

// Optimize relaxes the geometry to an RHF minimum.
func Optimize(mol *molecule.Molecule, o OptimizeOptions) (*OptimizeResult, error) {
	o = o.withDefaults()
	cur := cloneMol(mol)
	res := &OptimizeResult{Molecule: cur}
	first, err := energyAt(cur, o.BasisName, o.SCF)
	if err != nil {
		return nil, err
	}
	// Every SCF from here on starts from the density of the last accepted
	// geometry: displaced and trial geometries are a few millibohr away.
	e := first.Energy
	o.SCF.InitialDensity = first.D
	res.Energy = e
	res.EnergyTrace = append(res.EnergyTrace, e)

	alpha := o.InitialAlpha
	for step := 1; step <= o.MaxSteps; step++ {
		res.Steps = step
		grad, err := NumericalGradient(cur, o.BasisName, o.SCF, o.Step)
		if err != nil {
			return nil, err
		}
		maxG := 0.0
		for _, g := range grad {
			for ax := 0; ax < 3; ax++ {
				if v := math.Abs(g[ax]); v > maxG {
					maxG = v
				}
			}
		}
		res.MaxGradient = maxG
		if maxG < o.GradTol {
			res.Converged = true
			break
		}
		// Steepest descent with backtracking line search.
		improved := false
		for try := 0; try < 12; try++ {
			trial := cloneMol(cur)
			for a := range trial.Atoms {
				for ax := 0; ax < 3; ax++ {
					trial.Atoms[a].Pos[ax] -= alpha * grad[a][ax]
				}
			}
			rt, err := energyAt(trial, o.BasisName, o.SCF)
			if err == nil && rt.Energy < e {
				cur, e = trial, rt.Energy
				o.SCF.InitialDensity = rt.D
				res.Molecule = cur
				res.Energy = e
				res.EnergyTrace = append(res.EnergyTrace, e)
				alpha *= 1.4 // cautiously grow after success
				improved = true
				break
			}
			alpha *= 0.4
		}
		if !improved {
			// Line search exhausted: treat as converged-as-good-as-it-gets.
			break
		}
	}
	return res, nil
}

// BondLength returns the distance (bohr) between two atoms of a molecule.
func BondLength(m *molecule.Molecule, a, b int) float64 {
	return molecule.Distance(m.Atoms[a].Pos, m.Atoms[b].Pos)
}

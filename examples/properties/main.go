// Properties: go beyond the energy — Mulliken charges and the dipole
// moment of water from a converged RHF density, then an open-shell UHF
// calculation on triplet O2 (the paper's conclusion notes UHF inherits
// the hybrid Fock-build structure directly; this repository implements it
// as extra J/K channels on the one quartet digest).
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	// Closed shell: water properties.
	water, err := repro.BuiltinMolecule("water")
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	res, err := repro.Run(ctx, water, "sto-3g", repro.Serial)
	if err != nil {
		log.Fatal(err)
	}
	props, err := repro.AnalyzeRHF(water, "sto-3g", res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("water RHF/STO-3G: E = %.8f hartree\n", res.Energy)
	fmt.Println("Mulliken charges:")
	for i, a := range water.Atoms {
		fmt.Printf("  %-2s %+.4f e\n", a.Symbol, props.MullikenCharges[i])
	}
	fmt.Printf("dipole moment: %.4f debye (experiment: 1.85)\n\n", props.DipoleDebye)

	// Open shell: triplet molecular oxygen via UHF.
	o2, err := repro.ParseXYZ("2\ntriplet O2\nO 0 0 0\nO 0 0 1.2075\n")
	if err != nil {
		log.Fatal(err)
	}
	uhf := repro.Serial
	uhf.SCF.MaxIter = 200
	uhf.Multiplicity = 3
	triplet, err := repro.Run(ctx, o2, "sto-3g", uhf)
	if err != nil {
		log.Fatal(err)
	}
	uhf.Multiplicity = 1
	singlet, err := repro.Run(ctx, o2, "sto-3g", uhf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("O2 UHF/STO-3G triplet: E = %.6f hartree, <S^2> = %.3f (exact 2.0)\n",
		triplet.Energy, triplet.Spin.SSquared)
	fmt.Printf("O2 UHF/STO-3G singlet: E = %.6f hartree\n", singlet.Energy)
	fmt.Printf("Hund's rule at the UHF level: triplet below singlet by %.4f hartree\n",
		singlet.Energy-triplet.Energy)
}

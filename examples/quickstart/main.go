// Quickstart: run a restricted Hartree-Fock calculation on water with the
// STO-3G basis, serially and then with the paper's shared-Fock hybrid
// MPI/OpenMP algorithm, and verify they agree.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	water, err := repro.BuiltinMolecule("water")
	if err != nil {
		log.Fatal(err)
	}

	// Serial reference.
	ctx := context.Background()
	serial, err := repro.Run(ctx, water, "sto-3g", repro.Serial)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serial RHF/STO-3G water: %.10f hartree in %d iterations\n",
		serial.Energy, serial.Iterations)

	// The paper's shared-Fock hybrid: 4 MPI ranks (goroutines), 2 OpenMP
	// threads each, density and Fock matrices shared within each rank.
	plan := repro.SharedFock
	plan.Ranks, plan.Threads = 4, 2
	parallel, err := repro.Run(ctx, water, "sto-3g", plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shared-Fock (4x2):       %.10f hartree in %d iterations\n",
		parallel.Energy, parallel.Iterations)

	fmt.Printf("agreement: |dE| = %.2e hartree\n", abs(parallel.Energy-serial.Energy))
	fmt.Printf("occupied orbital energies (hartree):")
	for i := 0; i < water.NumElectrons()/2; i++ {
		fmt.Printf(" %.4f", serial.OrbitalEnergies[i])
	}
	fmt.Println()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

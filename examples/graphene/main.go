// Graphene: the paper's workload domain at laptop scale. Builds a small
// graphene flake (the benchmark systems are bilayer graphene sheets, see
// paper Section 5.2 and Table 4), runs all three Fock-build algorithms on
// it, and compares their energies, iteration counts, and screening
// statistics.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	// The smallest hydrogen-terminated graphene fragment (benzene) with
	// STO-3G keeps real execution quick and closed-shell; bare flakes
	// (repro.GrapheneFlake) have degenerate partially-filled pi orbitals
	// that RHF converges erratically on. The paper's systems (44 to 2,016
	// carbons with 6-31G(d)) are reachable through the simulator (see
	// examples/scaling).
	flake, err := repro.BuiltinMolecule("benzene")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("system: %s (%d atoms, %d electrons)\n",
		flake.Name, flake.NumAtoms(), flake.NumElectrons())
	info, err := repro.DescribeBasis(flake, "sto-3g")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("basis:  %d shells, %d basis functions\n\n", info.NumShells, info.NumBF)

	serialStart := time.Now()
	ctx := context.Background()
	plan := repro.Serial
	plan.SCF.MaxIter = 200
	serial, err := repro.Run(ctx, flake, "sto-3g", plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-14s E = %.8f hartree, %2d iterations, %6d quartets, %v\n",
		"serial", serial.Energy, serial.Iterations,
		serial.TotalFockStats.QuartetsComputed, time.Since(serialStart).Round(time.Millisecond))

	for _, plan := range []repro.Plan{repro.MPIOnly, repro.PrivateFock, repro.SharedFock} {
		start := time.Now()
		plan.Ranks, plan.Threads, plan.SCF.MaxIter = 2, 2, 200
		res, err := repro.Run(ctx, flake, "sto-3g", plan)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s E = %.8f hartree, %2d iterations, %6d quartets, %v  (|dE|=%.1e)\n",
			plan.Algorithm, res.Energy, res.Iterations, res.TotalFockStats.QuartetsComputed,
			time.Since(start).Round(time.Millisecond), abs(res.Energy-serial.Energy))
	}

	fmt.Println("\nThe three parallelizations are exact reorganizations of the same")
	fmt.Println("quartet sum: identical energies, different memory/synchronization")
	fmt.Println("trade-offs (paper Algorithms 1-3).")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

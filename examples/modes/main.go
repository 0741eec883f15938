// Modes: sweep the simulated Xeon Phi cluster modes (all-to-all,
// quadrant, SNC-4) and memory modes (cache, flat-DDR4, flat-MCDRAM) for
// the three SCF codes on a single node — the paper's Figure 5. The
// reproduced findings: the private-Fock code wins in every mode,
// quadrant-cache is the sweet spot, and only in all-to-all mode does the
// stock MPI code catch the shared-Fock code on small systems.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	sess := repro.NewSimSession()
	algs := []repro.Algorithm{repro.MPIOnly.Algorithm, repro.PrivateFock.Algorithm, repro.SharedFock.Algorithm}

	for _, system := range []string{"0.5nm", "2.0nm"} {
		fmt.Printf("=== %s bilayer graphene, single Xeon Phi node ===\n", system)
		fmt.Printf("%-11s %-12s | %10s %13s %12s\n", "cluster", "memory",
			"mpi-only", "private-fock", "shared-fock")
		for _, cm := range repro.KNLClusterModes {
			for _, mm := range repro.KNLMemoryModes {
				fmt.Printf("%-11s %-12s |", cm, mm)
				for _, alg := range algs {
					pt, err := sess.SimulateModes(system, alg, cm, mm)
					if err != nil {
						log.Fatal(err)
					}
					if pt.Feasible {
						fmt.Printf(" %10.0fs", pt.Seconds)
					} else {
						fmt.Printf("%11s", "oom")
					}
				}
				fmt.Println()
			}
		}
		fmt.Println()
	}
}

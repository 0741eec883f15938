// Command experiments runs the full reproduction suite in one pass:
// real-execution validation of the three parallel Fock builders on small
// molecules, then every simulated paper artifact (Tables 2-3,
// Figures 3-7), printing a report suitable for EXPERIMENTS.md.
package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"repro"
	"repro/internal/simulate"
)

// sections collects the wall time of the suite's parts, in run order.
var sections []string

// timed runs fn and records its wall time under name.
func timed(name string, fn func()) {
	t0 := time.Now()
	fn()
	sections = append(sections, fmt.Sprintf("  %-28s %v\n", name, time.Since(t0).Round(time.Millisecond)))
}

func main() {
	start := time.Now()
	fmt.Println("=================================================================")
	fmt.Println(" Reproduction suite: Mironov et al., SC17 (MPI/OpenMP HF on KNL)")
	fmt.Println("=================================================================")

	fmt.Println("\n--- Part 1: real-execution validation (in-process MPI/OpenMP) ---")
	timed("validation", validate)

	fmt.Println("\n--- Part 2: simulated paper artifacts ---")
	pc := simulate.NewProfileCache()

	fmt.Println("\nTable 2 (memory footprints):")
	timed("table2", func() { fmt.Print(simulate.FormatTable2(simulate.RunTable2())) })

	var rows3 []simulate.ScalingRow
	var err error
	timed("table3/fig6", func() { rows3, err = simulate.RunTable3(pc) })
	check(err)
	fmt.Println("\nTable 3 / Figure 6 (2.0 nm, Theta, 4-512 nodes):")
	fmt.Print(simulate.FormatScaling(rows3))

	rows4, err := simulate.RunFig4(pc)
	check(err)
	fmt.Println("\nFigure 4 (single node, 1.0 nm):")
	fmt.Print(simulate.FormatFig4(rows4))

	rowsF3, err := simulate.RunFig3(pc)
	check(err)
	fmt.Println("\nFigure 3 (affinity, shared-Fock, 1.0 nm):")
	fmt.Print(simulate.FormatFig3(rowsF3))

	rows5, err := simulate.RunFig5(pc)
	check(err)
	fmt.Println("\nFigure 5 (cluster x memory modes):")
	fmt.Print(simulate.FormatFig5(rows5))

	var rows7 []simulate.Fig7Row
	timed("fig7 (incl. 5nm profile)", func() { rows7, err = simulate.RunFig7(pc) })
	check(err)
	fmt.Println("\nFigure 7 (5.0 nm, shared-Fock, up to 3,000 nodes):")
	fmt.Print(simulate.FormatFig7(rows7))

	fmt.Println("\nSection timings (wall clock, as the paper's appendix insists):")
	for _, line := range sections {
		fmt.Print(line)
	}
	fmt.Printf("\nSuite completed in %v\n", time.Since(start).Round(time.Second))
}

// validate runs each algorithm through a full SCF on water and checks
// they reproduce the serial energy to machine precision.
func validate() {
	mol, err := repro.BuiltinMolecule("water")
	check(err)
	serial, err := repro.Run(context.Background(), mol, "sto-3g", repro.Serial)
	check(err)
	fmt.Printf("serial RHF water/STO-3G:  E = %.10f hartree (%d iterations)\n",
		serial.Energy, serial.Iterations)
	for _, plan := range []repro.Plan{repro.MPIOnly, repro.PrivateFock, repro.SharedFock} {
		plan.Ranks, plan.Threads = 3, 2
		res, err := repro.Run(context.Background(), mol, "sto-3g", plan)
		check(err)
		diff := math.Abs(res.Energy - serial.Energy)
		status := "OK"
		if diff > 1e-9 {
			status = "MISMATCH"
		}
		fmt.Printf("%-13s (3 ranks x 2 threads): E = %.10f  |dE| = %.1e  %s\n",
			plan.Algorithm, res.Energy, diff, status)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

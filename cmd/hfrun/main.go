// Command hfrun runs a Hartree-Fock calculation on a builtin molecule, a
// graphene flake, or an XYZ file, under any preset of the facade's plan
// table: serially, with one of the paper's three parallel Fock-build
// algorithms on the in-process MPI/OpenMP runtimes, or on distributed
// tiles.
//
// Examples:
//
//	hfrun -mol water -basis sto-3g
//	hfrun -mol methane -basis "6-31g(d)" -alg shared-fock -ranks 4 -threads 4
//	hfrun -flake 6 -basis sto-3g -alg private-fock
//	hfrun -mol water -uhf 3 -alg shared-fock -ranks 2 -threads 2
//	hfrun -xyz geometry.xyz -basis 6-31g
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"repro"
)

func main() {
	var (
		molName  = flag.String("mol", "water", "builtin molecule (h2, heh+, water, methane, ammonia, benzene)")
		flakeN   = flag.Int("flake", 0, "run a graphene flake with N carbon atoms instead of -mol")
		xyzPath  = flag.String("xyz", "", "read geometry from an XYZ file instead of -mol")
		basis    = flag.String("basis", "sto-3g", "basis set: sto-3g, 6-31g, 6-31g(d)")
		alg      = flag.String("alg", "", "parallel algorithm: mpi-only, private-fock, shared-fock, purified, purified-abft (empty = serial)")
		ranks    = flag.Int("ranks", 2, "MPI ranks for parallel runs")
		threads  = flag.Int("threads", 2, "OpenMP threads per rank for parallel runs")
		deadline = flag.Duration("deadline", 0, "bound on every blocking runtime operation in parallel runs (0 = no watchdog)")
		grace    = flag.Duration("grace", 0, "unwind window past -deadline before stragglers are abandoned (0 = runtime default)")
		maxIter  = flag.Int("maxiter", 100, "maximum SCF iterations")
		verbose  = flag.Bool("v", false, "print per-iteration convergence history")
		mult     = flag.Int("uhf", 0, "run UHF with this spin multiplicity (2S+1) instead of RHF")
		mp2      = flag.Bool("mp2", false, "add the MP2 correlation energy after a serial RHF")
		guess    = flag.String("guess", "core", "initial guess: core or gwh")
		doOpt    = flag.Bool("opt", false, "optimize the geometry before reporting (serial RHF)")
		traceF   = flag.String("trace", "", "write a Chrome trace-event JSON (load in chrome://tracing or Perfetto) to this file")
		metricF  = flag.String("metrics", "", "write the metrics snapshot JSON to this file")
		pprofA   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
	)
	flag.Parse()

	if *pprofA != "" {
		go func() {
			if err := http.ListenAndServe(*pprofA, nil); err != nil {
				fmt.Fprintln(os.Stderr, "hfrun: pprof:", err)
			}
		}()
		fmt.Printf("pprof:    http://localhost%s/debug/pprof/\n", *pprofA)
	}
	var tel *repro.Telemetry
	if *traceF != "" || *metricF != "" {
		tel = repro.NewTelemetry()
		defer finishTelemetry(tel, *traceF, *metricF)
	}

	mol, err := loadMolecule(*molName, *flakeN, *xyzPath)
	if err != nil {
		fatal(err)
	}
	info, err := repro.DescribeBasis(mol, *basis)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("molecule: %s (%d atoms, %d electrons)\n", mol.Name, mol.NumAtoms(), mol.NumElectrons())
	fmt.Printf("basis:    %s (%d shells, %d basis functions)\n", info.Name, info.NumShells, info.NumBF)

	opt := repro.SCFOptions{MaxIter: *maxIter, Guess: *guess, Telemetry: tel}
	start := time.Now()
	if *doOpt {
		fmt.Println("mode:     geometry optimization (serial RHF)")
		ores, err := repro.OptimizeGeometry(mol, *basis, opt)
		if err != nil {
			fatal(err)
		}
		status := "CONVERGED"
		if !ores.Converged {
			status = "NOT CONVERGED"
		}
		fmt.Printf("status:            %s in %d steps (max grad %.2e)\n",
			status, ores.Steps, ores.MaxGradient)
		fmt.Printf("final energy:      %16.10f hartree\n", ores.Energy)
		fmt.Printf("optimized geometry (angstrom):\n%s", ores.Molecule.XYZ())
		fmt.Printf("wall time:         %v\n", time.Since(start).Round(time.Millisecond))
		return
	}
	plan, err := repro.PlanByName(*alg)
	if err != nil {
		fatal(err)
	}
	plan.Multiplicity = *mult
	plan.Ranks, plan.Threads = *ranks, *threads
	plan.Deadline, plan.Grace = *deadline, *grace
	plan.SCF = opt
	fmt.Println(modeLine(plan, *alg))
	res, err := repro.Run(context.Background(), mol, *basis, plan)
	if errors.Is(err, repro.ErrUnsupported) {
		fmt.Fprintln(os.Stderr, "hfrun:", err)
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	if sp := res.Spin; sp != nil {
		status := "CONVERGED"
		if !res.Converged {
			status = "NOT CONVERGED"
		}
		sz := float64(sp.NumAlpha-sp.NumBeta) / 2
		fmt.Printf("status:            %s in %d iterations\n", status, res.Iterations)
		fmt.Printf("total energy:      %16.10f hartree\n", res.Energy)
		fmt.Printf("<S^2>:             %10.4f (exact %.2f)\n", sp.SSquared, sz*(sz+1))
		fmt.Printf("occupations:       %d alpha, %d beta\n", sp.NumAlpha, sp.NumBeta)
		fmt.Printf("wall time:         %v\n", time.Since(start).Round(time.Millisecond))
		return
	}
	if rec := res.Recovery; plan.Recovery == repro.PurifiedABFT.Recovery {
		fmt.Printf("abft:     %d attempt(s), %d recoveries, %d tiles reconstructed, %d audit repairs\n",
			rec.Attempts, rec.Restarts, rec.ReconstructedTiles, rec.RepairedTiles)
	}
	if pinfo := res.Tiles; pinfo != nil {
		fmt.Printf("distmat:  %dx%d grid, block %d, %d sweeps, peak %d bytes/rank (replicated %d)\n",
			pinfo.GridPr, pinfo.GridPc, pinfo.BlockSize, pinfo.TotalSweeps,
			pinfo.PeakRankBytes, pinfo.ReplicatedBytes)
	}
	elapsed := time.Since(start)

	if *verbose {
		fmt.Println("\niter          energy            dE       rms(D)")
		for i, it := range res.History {
			fmt.Printf("%4d  %16.10f  %12.3e  %11.3e\n", i+1, it.Energy, it.DeltaE, it.RMSDens)
		}
		fmt.Println()
	}
	status := "CONVERGED"
	if !res.Converged {
		status = "NOT CONVERGED"
	}
	fmt.Printf("status:            %s in %d iterations\n", status, res.Iterations)
	fmt.Printf("total energy:      %16.10f hartree\n", res.Energy)
	fmt.Printf("electronic energy: %16.10f hartree\n", res.Electronic)
	fmt.Printf("nuclear repulsion: %16.10f hartree\n", res.NuclearRepulsion)
	fmt.Printf("ERI quartets:      %d computed, %d screened\n",
		res.TotalFockStats.QuartetsComputed, res.TotalFockStats.QuartetsScreened)
	fmt.Printf("wall time:         %v\n", elapsed.Round(time.Millisecond))
	if *mp2 {
		corr, err := repro.RunMP2(mol, *basis, res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("MP2 correlation:   %16.10f hartree\n", corr.CorrelationEnergy)
		fmt.Printf("MP2 total energy:  %16.10f hartree\n", corr.TotalEnergy)
	}
}

// modeLine describes the run the plan names, axis by axis.
func modeLine(p repro.Plan, name string) string {
	var shape string
	switch p.Algorithm {
	case repro.Serial.Algorithm:
		shape = "serial"
	case repro.Purified.Algorithm:
		shape = fmt.Sprintf("purified (distributed tiles), %d ranks", p.Ranks)
	case repro.PurifiedABFT.Algorithm:
		shape = fmt.Sprintf("purified + ABFT checksum tiles, %d ranks", p.Ranks)
	default:
		shape = fmt.Sprintf("%s, %d ranks x %d threads", name, p.Ranks, p.Threads)
	}
	switch {
	case p.Multiplicity == 0:
		return "mode:     " + shape
	case p.Algorithm == repro.Serial.Algorithm:
		return fmt.Sprintf("mode:     UHF, multiplicity %d (%s)", p.Multiplicity, shape)
	}
	return fmt.Sprintf("mode:     UHF, multiplicity %d, %s", p.Multiplicity, shape)
}

func loadMolecule(name string, flakeN int, xyzPath string) (*repro.Molecule, error) {
	switch {
	case xyzPath != "":
		data, err := os.ReadFile(xyzPath)
		if err != nil {
			return nil, err
		}
		return repro.ParseXYZ(string(data))
	case flakeN > 0:
		return repro.GrapheneFlake(flakeN), nil
	default:
		return repro.BuiltinMolecule(name)
	}
}

// finishTelemetry writes the trace and metrics files and prints the
// end-of-run summary (load-imbalance table, counters, histograms).
func finishTelemetry(tel *repro.Telemetry, tracePath, metricsPath string) {
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			fatal(err)
		}
		if err := tel.WriteTrace(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\ntrace written to %s (open in chrome://tracing or https://ui.perfetto.dev)\n", tracePath)
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			fatal(err)
		}
		if err := tel.WriteMetrics(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics written to %s\n", metricsPath)
	}
	fmt.Printf("\n%s", tel.Summary())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hfrun:", err)
	os.Exit(1)
}

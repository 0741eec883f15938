package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro"
)

// liveDistmat is the distributed-matrix gate, in two acts.
//
// Equivalence: water/STO-3G converged both ways — replicated eigensolve
// SCF and distributed purification SCF — must land on the same fixed
// point: |dE| <= 1e-10 hartree and densities elementwise within 1e-8.
//
// Memory wall: benzene/STO-3G (N = 36) under a simulated per-rank
// MCDRAM budget of 36 KiB — a 16 GiB node scaled so the replicated
// working set (5 square matrices, 51840 bytes) no longer fits. The
// purified run on a 4x4 grid must stay inside the budget, measured by
// the distmat.peak_rank_bytes gauge (steady-state tiles + bounded Fock
// staging), while still matching the replicated-path energy to 1e-10.
func liveDistmat(e *env) {
	fmt.Println("-- act 1: eigensolve vs purification equivalence (water/STO-3G, 4 ranks) --")
	ctx := context.Background()
	serial, purified := repro.Serial, repro.Purified
	serial.SCF = repro.SCFOptions{ConvDens: 1e-10, ConvEnergy: 1e-12}
	purified.SCF = serial.SCF
	water, err := repro.BuiltinMolecule("water")
	check(err)
	eig, err := repro.Run(ctx, water, "sto-3g", serial)
	check(err)
	purified.Ranks, purified.Deadline = 4, 60*time.Second
	pur, err := repro.Run(ctx, water, "sto-3g", purified)
	check(err)
	info := pur.Tiles
	dE := math.Abs(pur.Energy - eig.Energy)
	dD := pur.D.MaxAbsDiff(eig.D)
	fmt.Printf("  eigensolve  E = %.12f hartree (%d iterations)\n", eig.Energy, eig.Iterations)
	fmt.Printf("  purified    E = %.12f hartree (%d iterations, %d sweeps, %dx%d grid, bs %d)\n",
		pur.Energy, pur.Iterations, info.TotalSweeps, info.GridPr, info.GridPc, info.BlockSize)
	e.check("purified matches eigensolve", pur.Converged && dE <= 1e-10 && dD <= 1e-8,
		fmt.Sprintf("conv=%v |dE| %.1e max|dD| %.1e", pur.Converged, dE, dD))

	fmt.Println("-- act 2: past the MCDRAM wall (benzene/STO-3G, 16 ranks, 36 KiB/rank budget) --")
	const budget = int64(36 << 10)
	benzene, err := repro.BuiltinMolecule("benzene")
	check(err)
	ref, err := repro.Run(ctx, benzene, "sto-3g", serial)
	check(err)
	purified.Ranks, purified.Deadline = 16, 120*time.Second
	purified.BlockSize, purified.CacheTiles, purified.AccTiles = 6, 8, 8
	res, err := repro.Run(ctx, benzene, "sto-3g", purified)
	check(err)
	winfo := res.Tiles
	wdE := math.Abs(res.Energy - ref.Energy)
	fmt.Printf("  replicated working set  %6d bytes/rank (5 N^2 matrices, N = %d)\n",
		winfo.ReplicatedBytes, ref.D.Rows)
	fmt.Printf("  distributed peak        %6d bytes/rank (%dx%d grid, bs %d, %d blocks/dim)\n",
		winfo.PeakRankBytes, winfo.GridPr, winfo.GridPc, winfo.BlockSize, winfo.NumBlocks)
	fmt.Printf("  one-sided traffic       get %d  put %d  acc %d bytes (%d sweeps over %d iterations)\n",
		winfo.GetBytes, winfo.PutBytes, winfo.AccBytes, winfo.TotalSweeps, res.Iterations)
	fmt.Printf("  energies                replicated %.12f  distributed %.12f\n", ref.Energy, res.Energy)
	e.check("replicated set exceeds the budget", winfo.ReplicatedBytes > budget,
		fmt.Sprintf("replicated %d > budget %d", winfo.ReplicatedBytes, budget))
	e.check("distributed peak fits the budget", winfo.PeakRankBytes <= budget,
		fmt.Sprintf("peak %d <= budget %d", winfo.PeakRankBytes, budget))
	e.check("distributed energy matches replicated", res.Converged && wdE <= 1e-10,
		fmt.Sprintf("conv=%v |dE| %.1e (tol 1e-10)", res.Converged, wdE))

	t := newTable("system", "ranks", "grid", "block", "peak_rank_bytes", "budget_bytes", "replicated_bytes",
		"sweeps", "iters", "abs_de_ha")
	grid := func(pr, pc int) string { return fmt.Sprintf("%dx%d", pr, pc) }
	t.row("water", 4, grid(info.GridPr, info.GridPc), info.BlockSize, info.PeakRankBytes, "", "",
		info.TotalSweeps, pur.Iterations, e3(dE))
	t.row("benzene", 16, grid(winfo.GridPr, winfo.GridPc), winfo.BlockSize, winfo.PeakRankBytes, budget, winfo.ReplicatedBytes,
		winfo.TotalSweeps, res.Iterations, e3(wdE))
	e.writeCSV(t.csv())
}

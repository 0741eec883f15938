package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro"
	"repro/internal/mpi"
)

// liveABFT is the algorithm-based fault tolerance gate, in three acts,
// all on benzene/STO-3G over a 4x4 grid (N = 36, block size 6).
//
// Clean: the resilient purified SCF over checksum-redundant matrices
// must land on the replicated eigensolve energy (|dE| <= 1e-10 Ha) in
// one quiet attempt — the ABFT layer is transparent when nothing fails.
//
// Kill: rank 5 dies mid-purification. Survivors must reconstruct every
// lost tile from parity (distmat.abft.reconstructed_tiles > 0), resume
// the interrupted iteration on the shrunken world — no restart — and
// still land on the clean energy.
//
// Flip: a high mantissa bit of a resident tile element is flipped
// between sweeps, bypassing parity maintenance (a memory error, not a
// message error). The per-sweep checksum audit must detect and repair
// it in place — zero recoveries, zero silent corruptions — and the run
// must land on the clean energy.
func liveABFT(e *env) {
	ctx := context.Background()
	tight := repro.SCFOptions{ConvDens: 1e-10, ConvEnergy: 1e-12}
	benzene, err := repro.BuiltinMolecule("benzene")
	check(err)
	serial := repro.Serial
	serial.SCF = tight
	ref, err := repro.Run(ctx, benzene, "sto-3g", serial)
	check(err)
	// act runs the ABFT preset under a fresh telemetry session.
	act := func(fault *mpi.FaultPlan) (*repro.Result, *repro.Telemetry) {
		tel := repro.NewTelemetry()
		p := repro.PurifiedABFT
		p.Ranks, p.Deadline = 16, 120*time.Second
		p.BlockSize, p.CacheTiles, p.AccTiles = 6, 8, 8
		p.Fault, p.SCF = fault, tight
		p.SCF.Telemetry = tel
		res, err := repro.Run(ctx, benzene, "sto-3g", p)
		check(err)
		return res, tel
	}

	t := newTable("act", "abs_de_ha", "recoveries", "reconstructed_tiles", "sdc_injected",
		"audit_mismatches", "repaired_tiles", "sweeps")

	fmt.Println("-- act 1: clean ABFT run (benzene/STO-3G, 16 ranks, checksum tiles on) --")
	clean, ctel := act(nil)
	cinfo, crec := clean.Tiles, clean.Recovery
	cdE := math.Abs(clean.Energy - ref.Energy)
	fmt.Printf("  eigensolve  E = %.12f hartree\n", ref.Energy)
	fmt.Printf("  ABFT        E = %.12f hartree (%d iterations, %d sweeps, %d audits)\n",
		clean.Energy, clean.Iterations, cinfo.TotalSweeps,
		ctel.Registry.Snapshot().Counters["distmat.abft.audits"])
	e.check("clean ABFT run, one quiet attempt",
		clean.Converged && cdE <= 1e-10 && crec.Attempts == 1 && crec.Restarts == 0,
		fmt.Sprintf("conv=%v |dE| %.1e attempts %d recoveries %d", clean.Converged, cdE, crec.Attempts, crec.Restarts))
	t.row("clean", e3(cdE), 0, 0, 0, 0, 0, cinfo.TotalSweeps)

	fmt.Println("-- act 2: rank 5 killed mid-purification; reconstruct and resume --")
	kres, ktel := act(&mpi.FaultPlan{Kills: []mpi.Kill{{Rank: 5, Site: mpi.SitePurify, After: 25}}})
	kinfo, krec := kres.Tiles, kres.Recovery
	kdE := math.Abs(kres.Energy - ref.Energy)
	ksnap := ktel.Registry.Snapshot()
	krecon := ksnap.Counters["distmat.abft.reconstructed_tiles"]
	fmt.Printf("  survived    E = %.12f hartree (%d iterations, %d sweeps)\n",
		kres.Energy, kres.Iterations, kinfo.TotalSweeps)
	fmt.Printf("  recovery    ranks %v, failed %v, resumed at iteration %d, %d tiles from parity\n",
		krec.RanksPerAttempt, krec.FailedRanks, krec.ResumedIter, krec.ReconstructedTiles)
	e.check("rank 5 lost, tiles rebuilt from parity",
		kres.Converged && kdE <= 1e-10 && krec.Restarts >= 1 && krec.ReconstructedTiles > 0 && krecon > 0,
		fmt.Sprintf("conv=%v |dE| %.1e recov %d rebuilt %d (ctr %d)",
			kres.Converged, kdE, krec.Restarts, krec.ReconstructedTiles, krecon))
	t.row("kill-rank-5", e3(kdE), krec.Restarts, krec.ReconstructedTiles, 0, 0, 0, kinfo.TotalSweeps)

	fmt.Println("-- act 3: resident bit flip between sweeps; audit detects and repairs --")
	// Bit 51 changes any normal float by ~25% of itself, far beyond the
	// audit's 1e-8 relative tolerance; index 8 lands on a symmetry-nonzero
	// element of rank 3's first owned tile of the working density.
	fres, ftel := act(&mpi.FaultPlan{Corrupts: []mpi.Corrupt{{
		Rank: 3, Site: mpi.SitePurify, After: 10,
		Kind: mpi.CorruptBitFlip, Index: 8, Bit: 51,
	}}})
	finfo, frec := fres.Tiles, fres.Recovery
	fdE := math.Abs(fres.Energy - ref.Energy)
	fsnap := ftel.Registry.Snapshot()
	injected := fsnap.Counters["sdc.injected"]
	detected := fsnap.Counters["sdc.detected"]
	fmt.Printf("  repaired    E = %.12f hartree (%d iterations, %d sweeps)\n",
		fres.Energy, fres.Iterations, finfo.TotalSweeps)
	fmt.Printf("  audit       injected %d, detected %d, mismatches %d, repaired tiles %d\n",
		injected, detected, frec.AuditMismatches, frec.RepairedTiles)
	e.check("bit flip caught and repaired in place",
		fres.Converged && fdE <= 1e-10 && frec.Restarts == 0 &&
			injected > 0 && detected > 0 && frec.AuditMismatches > 0 && frec.RepairedTiles > 0,
		fmt.Sprintf("conv=%v |dE| %.1e recov %d inj %d det %d rep %d",
			fres.Converged, fdE, frec.Restarts, injected, detected, frec.RepairedTiles))
	t.row("bit-flip", e3(fdE), 0, 0, injected, frec.AuditMismatches, frec.RepairedTiles, finfo.TotalSweeps)
	e.writeCSV(t.csv())
}

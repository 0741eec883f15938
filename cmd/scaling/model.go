package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro"
	"repro/internal/distmat"
	"repro/internal/knl"
	"repro/internal/mpi"
	"repro/internal/simulate"
)

// model adapts one simulated artifact — run it, build its one table,
// print it and write it as CSV — to an experiment.
func model[R any](run func(*simulate.ProfileCache) ([]R, error), render func([]R) *table) func(*env) {
	return func(e *env) {
		rows, err := run(e.pc)
		check(err)
		e.emit(render(rows))
		fmt.Println()
	}
}

// The tables of the simulated artifacts. internal/simulate returns rows;
// these are their only rendering, so a column is named and formatted in
// one place. An empty cell is a configuration that does not fit in
// memory.

// table2Table adds two extension columns to the paper's Table 2, which
// depend on distmat's tile and parity placement rather than on the model:
// the per-RANK footprint when the five iteration matrices live as 2D
// block-cyclic tiles over the stock code's compute ranks instead of being
// replicated, and the ABFT checksum tiles as a percentage of those data
// tiles (the price of surviving a rank death without restarting).
func table2Table(rows []simulate.Table2Row) *table {
	t := newTable("system", "atoms", "basis_functions", "mpi_gb", "private_fock_gb", "shared_fock_gb",
		"distributed_gb_per_rank", "abft_overhead_pct", "ratio_private", "ratio_shared", "ratio_distributed")
	for _, r := range rows {
		distGB := float64(distmat.FootprintPerRank(r.BasisF, simulate.Table2Ranks)) / (1 << 30)
		parity, data := distmat.ABFTBytesPerRank(r.BasisF, simulate.Table2Ranks, 0)
		t.row(r.System, r.Atoms, r.BasisF, fx(4, r.MPIGB), fx(4, r.PrFGB), fx(4, r.ShFGB),
			fx(6, distGB), f2(100*float64(parity)/float64(data)), fx(1, r.RatioPr), fx(1, r.RatioSh),
			fx(1, r.MPIGB/distGB))
	}
	return t
}

// perAlgorithm is one f2 cell per code, in the paper's order; a missing
// entry (infeasible) is an empty cell.
func perAlgorithm(m map[string]float64) []any {
	cells := make([]any, len(simulate.AlgorithmsOrder))
	for i, alg := range simulate.AlgorithmsOrder {
		cells[i] = ""
		if v, ok := m[alg]; ok {
			cells[i] = f2(v)
		}
	}
	return cells
}

func scalingTable(rows []simulate.ScalingRow) *table {
	t := newTable("nodes", "mpi_s", "private_fock_s", "shared_fock_s", "mpi_eff_pct", "private_eff_pct", "shared_eff_pct")
	for _, r := range rows {
		cells := append([]any{r.Nodes}, perAlgorithm(r.TimeSec)...)
		for _, alg := range simulate.AlgorithmsOrder {
			cells = append(cells, fx(1, r.EffPct[alg]))
		}
		t.row(cells...)
	}
	return t
}

func fig3Table(rows []simulate.Fig3Row) *table {
	cols := []string{"threads_per_rank"}
	for _, aff := range knl.Affinities {
		cols = append(cols, fmt.Sprintf("%s_s", aff))
	}
	t := newTable(cols...)
	for _, r := range rows {
		cells := []any{r.ThreadsPerRank}
		for _, aff := range knl.Affinities {
			cells = append(cells, f2(r.TimeSec[aff]))
		}
		t.row(cells...)
	}
	return t
}

func fig4Table(rows []simulate.Fig4Row) *table {
	t := newTable("hw_threads", "mpi_s", "private_fock_s", "shared_fock_s")
	for _, r := range rows {
		t.row(append([]any{r.HWThreads}, perAlgorithm(r.TimeSec)...)...)
	}
	return t
}

func fig5Table(rows []simulate.Fig5Row) *table {
	t := newTable("system", "cluster_mode", "memory_mode", "mpi_s", "private_fock_s", "shared_fock_s")
	for _, r := range rows {
		t.row(append([]any{r.System, r.ClusterMode, r.MemoryMode}, perAlgorithm(r.TimeSec)...)...)
	}
	return t
}

func fig7Table(rows []simulate.Fig7Row) *table {
	t := newTable("nodes", "cores", "time_s", "efficiency_pct", "gb_per_node")
	for _, r := range rows {
		t.row(r.Nodes, r.Cores, f2(r.TimeSec), fx(1, r.EffPct), fx(1, r.MemGB))
	}
	return t
}

func sweepTable(rows []simulate.SweepRow) *table {
	t := newTable("system", "basis_functions", "sig_pairs", "total_pairs", "quartets", "quartet_growth", "fock_s", "diag_s")
	for _, r := range rows {
		growth := ""
		if r.QuartetGrowth > 0 {
			growth = fx(1, r.QuartetGrowth)
		}
		t.row(r.System, r.NBF, r.SigPairs, r.TotalPairs, r.Quartets, growth, fx(1, r.FockSec), fx(1, r.DiagSecEach))
	}
	return t
}

func breakdownTable(rows []simulate.BreakdownRow) *table {
	t := newTable("algorithm", "nodes", "time_s", "compute_pct", "screen_pct", "dlb_pct", "sync_pct", "reduce_pct")
	for _, r := range rows {
		t.row(r.Algorithm, r.Nodes, fx(1, r.FockSec), fx(1, r.ComputePct), fx(1, r.ScreenPct),
			fx(1, r.DLBPct), fx(1, r.SyncPct), fx(1, r.ReducePct))
	}
	return t
}

func resilienceTable(rows []simulate.ResilienceRow) *table {
	t := newTable("nodes", "system_mtbf_h", "iter_s", "base_s", "expected_failures",
		"restart_s", "restart_overhead_pct", "reissue_s", "reissue_overhead_pct")
	for _, r := range rows {
		t.row(r.Nodes, f2(r.SysMTBFH), f2(r.IterSec), f2(r.BaseSec), fx(3, r.ExpFailures),
			f2(r.RestartSec), f2(r.RestartOv*100), f2(r.ReissueSec), f2(r.ReissueOv*100))
	}
	return t
}

func sdcTable(rows []simulate.SDCRow) *table {
	t := newTable("nodes", "critical_strikes_per_hour", "expected_strikes", "p_wrong_bare", "p_wrong_verified",
		"base_s", "recompute_s", "verified_s", "verified_overhead_pct")
	e6 := func(x float64) string { return fmt.Sprintf("%.6e", x) }
	for _, r := range rows {
		t.row(r.Nodes, fx(6, r.EventsPerHour), fx(6, r.ExpEvents), e6(r.PWrongBare), e6(r.PWrongVerif),
			f2(r.BaseSec), fx(3, r.RecomputeSec), f2(r.VerifiedSec), fx(3, r.VerifiedOv*100))
	}
	return t
}

// breakdown is the 2.0 nm component decomposition at 64 and 512 nodes.
func breakdown(pc *simulate.ProfileCache) ([]simulate.BreakdownRow, error) {
	var rows []simulate.BreakdownRow
	for _, nodes := range []int{64, 512} {
		r, err := simulate.RunBreakdown(pc, "2.0nm", nodes)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

func ablation(e *env) {
	fmt.Println("-- DLB contention coefficient (MPI-only, 512 nodes) --")
	rows, err := simulate.RunDLBContentionAblation(e.pc)
	check(err)
	for _, r := range rows {
		fmt.Printf("  %-20s %8.1f s\n", r.Name, r.TimeSec)
	}
	fmt.Println("\n-- task granularity at 512 nodes (2.0 nm) --")
	rows, err = simulate.RunGranularityAblation(e.pc)
	check(err)
	for _, r := range rows {
		fmt.Printf("  %-45s %8.1f s\n", r.Name, r.TimeSec)
	}
	fmt.Println()
}

// resilience complements the analytic failure model with a real
// fault-injected run on the in-process runtime: a water/STO-3G RHF on 4
// ranks where rank 1 is killed at its third DLB draw. It prints the
// per-rank wall times and recovery-event counts from each attempt's
// mpi.RunReport — the measured counterpart of the model's restart
// overhead columns.
func resilience(e *env) {
	model(simulate.RunResilience, resilienceTable)(e)

	fmt.Println("== Live fault injection: water/STO-3G, 4 ranks, rank 1 killed at DLB draw #3 ==")
	mol, err := repro.BuiltinMolecule("water")
	check(err)
	plan := repro.Resilient
	plan.Ranks, plan.Deadline, plan.Grace = 4, 10*time.Second, e.grace
	plan.Fault = &mpi.FaultPlan{Kills: []mpi.Kill{{Rank: 1, Site: mpi.SiteDLB, After: 3}}}
	res, err := repro.Run(context.Background(), mol, "sto-3g", plan)
	check(err)
	rec := res.Recovery
	mode := "shrink-and-restart"
	if rec.InBuildRecovery {
		mode = "in-build lease re-issue"
	}
	fmt.Printf("  converged: %v  E = %.10f hartree  (%d attempt(s), recovery: %s)\n",
		res.Converged, res.Energy, rec.Attempts, mode)
	for i, rep := range rec.Reports {
		ev := rep.RecoveryCounts()
		fmt.Printf("  attempt %d: %d ranks | kills %d, panics %d, timeouts %d, unwound %d, abandoned %d\n",
			i+1, rep.Size, ev.Kills, ev.Panics, ev.Timeouts, ev.Unwound, ev.Abandoned)
		for r := 0; r < rep.Size; r++ {
			wall := time.Duration(0)
			if r < len(rep.RankWall) {
				wall = rep.RankWall[r]
			}
			fmt.Printf("    rank %d: %-9s wall %v\n", r, rep.OutcomeOf(r), wall.Round(time.Microsecond))
		}
	}
	fmt.Println()
}

// sdc prints the SDC model and then runs its measured counterpart — a
// hard gate. One corruption is driven through each injection site of
// the integrity layer (in-flight payload bit-flip, in-flight NaN,
// Fock-task NaN, checkpoint bit-flip) on real fault-injected runs, and
// every case must show 100% detection (sdc.detected == sdc.injected,
// with at least one injection landed), graceful recovery, and a
// converged energy within 1e-8 hartree of the clean reference.
func sdc(e *env) {
	model(simulate.RunSDC, sdcTable)(e)

	fmt.Println("== Live SDC gate: water/STO-3G, one corruption per integrity site ==")
	mol, err := repro.BuiltinMolecule("water")
	check(err)
	clean, err := repro.Run(context.Background(), mol, "sto-3g", repro.Serial)
	check(err)

	cases := []struct {
		name  string
		ranks int
		plan  mpi.FaultPlan
	}{
		{"transport bit-flip", 2, mpi.FaultPlan{Corrupts: []mpi.Corrupt{
			{Rank: 1, Site: mpi.SiteSend, After: 3, Kind: mpi.CorruptBitFlip, Index: 2, Bit: 17}}}},
		{"transport nan-poison", 2, mpi.FaultPlan{Corrupts: []mpi.Corrupt{
			{Rank: 1, Site: mpi.SiteSend, After: 5, Kind: mpi.CorruptNaN, Index: 4}}}},
		{"fock-task nan-poison", 2, mpi.FaultPlan{Corrupts: []mpi.Corrupt{
			{Rank: 1, Site: mpi.SiteFock, After: 2, Kind: mpi.CorruptNaN, Index: 0}}}},
		// A checkpoint flip is only observed on restart, so pair it with a
		// rank kill at the start of iteration 3 (the fifth barrier — the
		// DLB resets barrier twice per build).
		{"checkpoint bit-flip", 3, mpi.FaultPlan{
			Kills:    []mpi.Kill{{Rank: 1, Site: mpi.SiteBarrier, After: 5}},
			Corrupts: []mpi.Corrupt{{Rank: 0, Site: mpi.SiteCheckpoint, After: 2, Kind: mpi.CorruptBitFlip, Index: 120, Bit: 4}}}},
	}
	for _, tc := range cases {
		tel := repro.NewTelemetry()
		plan := repro.Resilient
		plan.Algorithm = repro.MPIOnly.Algorithm
		plan.Ranks, plan.Deadline, plan.Grace = tc.ranks, 20*time.Second, e.grace
		plan.Fault, plan.SCF.Telemetry = &tc.plan, tel
		res, err := repro.Run(context.Background(), mol, "sto-3g", plan)
		c := tel.Registry.Snapshot().Counters
		injected, detected := c["sdc.injected"], c["sdc.detected"]
		dE := math.Inf(1)
		if err == nil && res != nil && res.Converged {
			dE = math.Abs(res.Energy - clean.Energy)
		}
		e.check(tc.name, err == nil && injected >= 1 && detected == injected && dE <= 1e-8,
			fmt.Sprintf("inj %d det %d rec %d |dE| %.1e Ha", injected, detected, c["sdc.recovered"], dE))
		if err != nil {
			fmt.Printf("    error: %v\n", err)
		}
	}
	fmt.Println()
}

// paper is the one-pass reproduction report: real-execution validation
// of the paper's three Fock builders against the serial energy, then
// the six simulated artifacts of the experiments table, then where the
// wall clock went, section by section.
func paper(e *env) {
	var sections strings.Builder
	timed := func(name string, fn func()) {
		t0 := time.Now()
		fn()
		fmt.Fprintf(&sections, "  %-12s %v\n", name, time.Since(t0).Round(time.Millisecond))
	}
	timed("validation", func() { validate(e) })
	for _, ex := range experiments() {
		switch ex.id {
		case "table2", "table3", "fig3", "fig4", "fig5", "fig7": // fig7 includes deriving the 5.0 nm profile
			fmt.Printf("\n-- %s --\n", ex.title)
			e.id = ex.id
			timed(ex.id, func() { ex.run(e) })
		}
	}
	fmt.Print("Section timings (wall clock, as the paper's appendix insists):\n", sections.String())
}

// validate runs each of Algorithms 1-3 through a full SCF on water and
// gates on reproducing the serial energy to 1e-9 hartree.
func validate(e *env) {
	ctx := context.Background()
	mol, err := repro.BuiltinMolecule("water")
	check(err)
	serial, err := repro.Run(ctx, mol, "sto-3g", repro.Serial)
	check(err)
	fmt.Printf("  serial RHF water/STO-3G: E = %.10f hartree (%d iterations)\n", serial.Energy, serial.Iterations)
	for _, plan := range []repro.Plan{repro.MPIOnly, repro.PrivateFock, repro.SharedFock} {
		plan.Ranks, plan.Threads = 3, 2
		res, err := repro.Run(ctx, mol, "sto-3g", plan)
		check(err)
		diff := math.Abs(res.Energy - serial.Energy)
		e.check(fmt.Sprintf("%s 3 ranks x 2 threads", plan.Algorithm), diff <= 1e-9,
			fmt.Sprintf("E = %.10f  |dE| = %.1e", res.Energy, diff))
	}
}

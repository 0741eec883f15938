// Command scaling regenerates the paper's simulated benchmark artifacts
// by experiment id:
//
//	scaling -exp table2   # memory footprints (Table 2)
//	scaling -exp table3   # 2.0 nm multi-node scaling (Table 3 / Figure 6)
//	scaling -exp fig3     # thread affinity sweep (Figure 3)
//	scaling -exp fig4     # single-node hardware-thread scaling (Figure 4)
//	scaling -exp fig5     # cluster x memory mode sweep (Figure 5)
//	scaling -exp fig7     # 5.0 nm on up to 3,000 Theta nodes (Figure 7)
//	scaling -exp ablation # DLB contention and task-granularity ablations
//	scaling -exp resilience # MTBF failure model: restart vs. lease re-issue
//	scaling -exp sdc      # silent-data-corruption model + live detection gate
//	scaling -exp chaos    # straggler/partition chaos: live mitigation gate
//	scaling -exp fleet    # 3 WAL-backed replicas, kill-one chaos, exactly-once gate
//	scaling -exp obs      # fleet-wide request tracing: waterfall + continuity gate
//	scaling -exp elastic  # elastic membership: grow/migrate/autoscaler gates
//	scaling -exp distmat  # distributed tiles + purification SCF: memory-wall gate
//	scaling -exp abft     # ABFT checksum tiles: kill-a-rank + bit-flip audit gates
//	scaling -exp all
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
	"repro/internal/mpi"
	"repro/internal/simulate"
)

// experiments lists every experiment id, in "all" execution order; the
// unknown-id error advertises exactly this list so it can never drift.
var experiments = []string{
	"table2", "table3", "fig3", "fig4", "fig5", "fig7",
	"sweep", "breakdown", "ablation", "resilience", "sdc", "chaos", "fleet", "obs", "elastic",
	"distmat", "abft",
}

func main() {
	exp := flag.String("exp", "all", "experiment id: "+strings.Join(experiments, ", ")+", all")
	csvDir := flag.String("csv", "", "also write <experiment>.csv files into this directory")
	grace := flag.Duration("grace", 0, "unwind grace past the deadline for fault-injected live runs (0 = runtime default)")
	obsTrace := flag.String("obs-trace", "", "obs experiment: write the merged fleet Chrome trace to this path")
	pprofA := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
	flag.Parse()

	if *pprofA != "" {
		go func() {
			if err := http.ListenAndServe(*pprofA, nil); err != nil {
				fmt.Fprintln(os.Stderr, "scaling: pprof:", err)
			}
		}()
	}

	pc := simulate.NewProfileCache()
	writeCSV := func(id, content string) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			check(err)
		}
		path := filepath.Join(*csvDir, id+".csv")
		check(os.WriteFile(path, []byte(content), 0o644))
		fmt.Printf("wrote %s\n", path)
	}
	run := func(id string) {
		start := time.Now()
		switch id {
		case "table2":
			fmt.Println("== Table 2: per-node memory footprints (model, eqs. 3a-3c) ==")
			rows := simulate.RunTable2()
			fmt.Println(simulate.FormatTable2(rows))
			writeCSV(id, simulate.CSVTable2(rows))
		case "table3", "fig6":
			fmt.Println("== Table 3 / Figure 6: 2.0 nm on Theta, 4-512 nodes ==")
			rows, err := simulate.RunTable3(pc)
			check(err)
			fmt.Println(simulate.FormatScaling(rows))
			writeCSV(id, simulate.CSVScaling(rows))
		case "fig3":
			fmt.Println("== Figure 3: thread affinity, shared-Fock, 1.0 nm, 1 node ==")
			rows, err := simulate.RunFig3(pc)
			check(err)
			fmt.Println(simulate.FormatFig3(rows))
			writeCSV(id, simulate.CSVFig3(rows))
		case "fig4":
			fmt.Println("== Figure 4: single-node hardware-thread scaling, 1.0 nm ==")
			rows, err := simulate.RunFig4(pc)
			check(err)
			fmt.Println(simulate.FormatFig4(rows))
			writeCSV(id, simulate.CSVFig4(rows))
		case "fig5":
			fmt.Println("== Figure 5: cluster x memory modes, 0.5 nm and 2.0 nm ==")
			rows, err := simulate.RunFig5(pc)
			check(err)
			fmt.Println(simulate.FormatFig5(rows))
			writeCSV(id, simulate.CSVFig5(rows))
		case "fig7":
			fmt.Println("== Figure 7: shared-Fock, 5.0 nm, 512-3,000 Theta nodes ==")
			rows, err := simulate.RunFig7(pc)
			check(err)
			fmt.Println(simulate.FormatFig7(rows))
			writeCSV(id, simulate.CSVFig7(rows))
		case "breakdown":
			fmt.Println("== Extension: component breakdown, 2.0 nm at 64 and 512 nodes ==")
			for _, nodes := range []int{64, 512} {
				rows, err := simulate.RunBreakdown(pc, "2.0nm", nodes)
				check(err)
				fmt.Println(simulate.FormatBreakdown(rows))
			}
		case "sweep":
			fmt.Println("== Extension: system sweep at 64 nodes (screening-driven scaling) ==")
			rows, err := simulate.RunSystemSweep(pc, 64)
			check(err)
			fmt.Println(simulate.FormatSweep(rows))
		case "resilience":
			fmt.Println("== Failure model: 5.0 nm at scale, checkpoint restart vs. lease re-issue ==")
			rows, err := simulate.RunResilience(pc)
			check(err)
			fmt.Println(simulate.FormatResilience(rows))
			writeCSV(id, simulate.CSVResilience(rows))
			liveResilience(*grace)
		case "sdc":
			fmt.Println("== SDC model: silent-corruption risk vs. verified-run overhead (5.0 nm, Figure 7 config) ==")
			rows, err := simulate.RunSDC(pc)
			check(err)
			fmt.Println(simulate.FormatSDC(rows))
			writeCSV(id, simulate.CSVSDC(rows))
			if !liveSDC(*grace) {
				fmt.Fprintln(os.Stderr, "scaling: live SDC detection gate FAILED")
				os.Exit(1)
			}
		case "ablation":
			fmt.Println("== Ablation: DLB contention coefficient (MPI-only, 512 nodes) ==")
			rows, err := simulate.RunDLBContentionAblation(pc)
			check(err)
			for _, r := range rows {
				fmt.Printf("  %-20s %8.1f s\n", r.Name, r.TimeSec)
			}
			fmt.Println("\n== Ablation: task granularity at 512 nodes (2.0 nm) ==")
			rows, err = simulate.RunGranularityAblation(pc)
			check(err)
			for _, r := range rows {
				fmt.Printf("  %-45s %8.1f s\n", r.Name, r.TimeSec)
			}
			fmt.Println()
		case "chaos":
			fmt.Println("== Chaos: straggler & partition tolerance (live mitigation gates) ==")
			if !liveChaos(*grace, writeCSV) {
				os.Exit(1)
			}
		case "fleet":
			fmt.Println("== Fleet: 3 WAL-backed replicas, kill-one chaos, exactly-once gate ==")
			if !liveFleet(writeCSV) {
				os.Exit(1)
			}
		case "obs":
			fmt.Println("== Observability: fleet-wide request tracing, waterfall + continuity gate ==")
			if !liveObs(*obsTrace) {
				os.Exit(1)
			}
		case "elastic":
			fmt.Println("== Elastic: grow-and-shrink membership, migration, autoscaler gates ==")
			if !liveElastic(*grace, writeCSV) {
				os.Exit(1)
			}
		case "distmat":
			fmt.Println("== Distmat: distributed 2D-blocked matrices + purification SCF gates ==")
			if !liveDistmat(writeCSV) {
				os.Exit(1)
			}
		case "abft":
			fmt.Println("== ABFT: checksum tiles, kill-a-rank reconstruction, bit-flip audit gates ==")
			if !liveABFT(writeCSV) {
				os.Exit(1)
			}
		default:
			fmt.Fprintf(os.Stderr, "scaling: unknown experiment %q (available: %s, all)\n",
				id, strings.Join(experiments, ", "))
			os.Exit(2)
		}
		fmt.Printf("[%s done in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, id := range experiments {
			run(id)
		}
		return
	}
	run(*exp)
}

// liveResilience complements the analytic failure model with a real
// fault-injected run on the in-process runtime: a water/STO-3G RHF on 4
// ranks where rank 1 is killed at its third DLB draw. It prints the
// per-rank wall times and recovery-event counts from each attempt's
// mpi.RunReport — the measured counterpart of the model's restart
// overhead columns.
func liveResilience(grace time.Duration) {
	fmt.Println("== Live fault injection: water/STO-3G, 4 ranks, rank 1 killed at DLB draw #3 ==")
	mol, err := repro.BuiltinMolecule("water")
	check(err)
	plan := repro.Resilient
	plan.Ranks, plan.Deadline, plan.Grace = 4, 10*time.Second, grace
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

// liveSDC is the measured counterpart of the SDC model — and a hard
// gate. It drives one corruption through each injection site of the
// integrity layer (in-flight payload bit-flip, in-flight NaN, Fock-task
// NaN, checkpoint bit-flip) on real fault-injected runs and requires,
// for every case: 100% detection (sdc.detected == sdc.injected, with at
// least one injection landed), graceful recovery, and a converged energy
// within 1e-8 hartree of the clean reference. Returns false on any miss.
func liveSDC(grace time.Duration) bool {
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

	ok := true
	fmt.Printf("  %-22s %8s %8s %9s %10s   %s\n",
		"case", "injected", "detected", "recovered", "|dE| Ha", "verdict")
	for _, tc := range cases {
		tel := repro.NewTelemetry()
		plan := repro.Resilient
		plan.Algorithm = repro.MPIOnly.Algorithm
		plan.Ranks, plan.Deadline, plan.Grace = tc.ranks, 20*time.Second, grace
		plan.Fault, plan.SCF.Telemetry = &tc.plan, tel
		res, err := repro.Run(context.Background(), mol, "sto-3g", plan)
		snap := tel.Registry.Snapshot()
		injected := snap.Counters["sdc.injected"]
		detected := snap.Counters["sdc.detected"]
		recovered := snap.Counters["sdc.recovered"]
		dE := math.Inf(1)
		if err == nil && res != nil && res.Converged {
			dE = math.Abs(res.Energy - clean.Energy)
		}
		pass := err == nil && injected >= 1 && detected == injected && dE <= 1e-8
		verdict := "PASS"
		if !pass {
			verdict = "FAIL"
			ok = false
		}
		fmt.Printf("  %-22s %8d %8d %9d %10.1e   %s\n",
			tc.name, injected, detected, recovered, dE, verdict)
		if err != nil {
			fmt.Printf("    error: %v\n", err)
		}
	}
	if ok {
		fmt.Println("  all sites detected and recovered: gate PASS")
	}
	fmt.Println()
	return ok
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		os.Exit(1)
	}
}

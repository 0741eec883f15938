package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro"
	"repro/internal/mpi"
)

// liveChaos is the straggler- and partition-tolerance gate: live runs on
// the in-process runtime under deterministic performance-fault chaos.
//
// Gate 1 (correctness): a water/STO-3G shared-Fock SCF runs under the
// full message-chaos menu — duplicated and reordered deliveries, a
// transient partition, and a 4× sustained straggler — and must converge
// to the clean serial energy within 1e-10 hartree, with the transport's
// sequence-number dedup provably exercised (chaos.dups_dropped >= 1).
// The same system then runs the resilient (hedged-DLB) builder under the
// straggler alone, with the same energy bar.
//
// Gate 2 (mitigation): the synthetic lease workload isolates the
// wall-time claim — with one rank 4× slow, hedged re-issue must hold the
// job within 1.6× of the clean wall time (the unmitigated run, reported
// alongside, pays ~4×), with every task pushed exactly once and
// dlb.reissued > 0.
func liveChaos(e *env) {
	// 6-31G rather than STO-3G: the larger pair space is what keeps the
	// straggler rank drawing tasks at all (STO-3G water is so small that
	// rank 0 drains the whole DLB cursor before its peers finish setup).
	fmt.Println("== Live chaos gate 1: water/6-31G under message chaos + 4x straggler ==")
	mol, err := repro.BuiltinMolecule("water")
	check(err)
	clean, err := repro.Run(context.Background(), mol, "6-31g", repro.Serial)
	check(err)

	// The full menu: rank 1 is a sustained 4x straggler, its sends are
	// duplicated, rank 2's sends are reordered, and rank 1 spends the
	// first 30 ms of the run partitioned from the others (healing well
	// before the deadline). None of it may change a single bit of the
	// converged energy.
	tel := repro.NewTelemetry()
	plan := repro.Resilient
	plan.Ranks, plan.Deadline, plan.Grace = 3, 30*time.Second, e.grace
	plan.Algorithm, plan.SCF.Telemetry = repro.SharedFock.Algorithm, tel
	plan.Fault = &mpi.FaultPlan{
		Slowdowns:  []mpi.Slowdown{{Rank: 1, Factor: 4, Sites: []mpi.FaultSite{mpi.SiteFock}}},
		Duplicates: []mpi.Duplicate{{Rank: 1, After: 2, Copies: 1}, {Rank: 0, After: 4, Copies: 2}},
		Reorders:   []mpi.Reorder{{Rank: 2, After: 3, Behind: 1}},
		Partitions: []mpi.Partition{{Ranks: []int{1}, Duration: 30 * time.Millisecond}},
	}
	res, err := repro.Run(context.Background(), mol, "6-31g", plan)
	if e.check("shared-Fock chaos run completes", err == nil, errDetail(err)) {
		snap := tel.Registry.Snapshot()
		dE := math.Abs(res.Energy - clean.Energy)
		e.check("shared-Fock energy under chaos", dE <= 1e-10,
			fmt.Sprintf("|dE| = %.1e Ha (tol 1e-10)", dE))
		e.check("duplicate deliveries dropped", snap.Counters["chaos.dups_dropped"] >= 1,
			fmt.Sprintf("chaos.dups_dropped = %d", snap.Counters["chaos.dups_dropped"]))
		fmt.Printf("  (chaos.dups %d, chaos.reorders %d, chaos.partition_held %d, slowdown stalls %d)\n",
			snap.Counters["chaos.dups"], snap.Counters["chaos.reorders"],
			snap.Counters["chaos.partition_held"], snap.Counters["chaos.slowdown.events"])
	}

	tel = repro.NewTelemetry()
	plan = repro.Resilient
	plan.Ranks, plan.Deadline, plan.Grace = 3, 30*time.Second, e.grace
	plan.SCF.Telemetry = tel
	plan.Fault = &mpi.FaultPlan{
		Slowdowns: []mpi.Slowdown{{Rank: 1, Factor: 4, Sites: []mpi.FaultSite{mpi.SiteFock}}},
	}
	res, err = repro.Run(context.Background(), mol, "6-31g", plan)
	if e.check("resilient-Fock straggler run completes", err == nil, errDetail(err)) {
		dE := math.Abs(res.Energy - clean.Energy)
		e.check("resilient-Fock energy with straggler", dE <= 1e-10,
			fmt.Sprintf("|dE| = %.1e Ha (tol 1e-10)", dE))
		rec := res.Recovery
		fmt.Printf("  (hedged %d, reissued %d, duplicates dropped %d)\n",
			rec.HedgedTasks, rec.ReissuedTasks, rec.DedupedTasks)
	}
	fmt.Println()

	fmt.Println("== Live chaos gate 2: synthetic lease workload, 4 ranks, rank 1 4x slow ==")
	r, err := runChaosWorkload()
	check(err)
	e.emit(r.table())
	e.check("every task pushed exactly once",
		r.clean.pushes == chaosTasks && r.unmitigated.pushes == chaosTasks && r.mitigated.pushes == chaosTasks,
		fmt.Sprintf("%d/%d/%d pushes of %d tasks",
			r.clean.pushes, r.unmitigated.pushes, r.mitigated.pushes, chaosTasks))
	e.check("mitigated wall <= 1.6x clean", r.mitigated.over(r.clean) <= 1.6,
		fmt.Sprintf("%.2fx clean (unmitigated %.2fx)", r.mitigated.over(r.clean), r.unmitigated.over(r.clean)))
	e.check("leases speculatively re-issued", r.reissued > 0,
		fmt.Sprintf("dlb.reissued = %d (hedged %d)", r.reissued, r.hedged))
}

package main

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/service"
	"repro/internal/simulate"
)

// liveElastic is the elastic-runtime gate: grow-and-shrink membership,
// checkpoint-based rebalance, straggler migration, and the
// telemetry-driven autoscaler, all on live runs.
//
// Gate 1 (grow correctness): a water/6-31G SCF starts on 2 ranks; two
// more announce themselves mid-run, the driver stops the epoch at an
// iteration boundary, hands the joiners the CRC-verified checkpoint,
// and restarts on 4 ranks. The converged energy must match the clean
// serial reference to 1e-10 hartree — elasticity may never move a bit
// of the physics.
//
// Gate 2 (migration correctness): one rank runs 6× slow; the EWMA
// straggler detector flags it at an iteration boundary and the driver
// re-hosts it (epoch restart with the sick host's fault plan left
// behind). Same energy bar, and the migration must actually fire.
//
// Gate 3 (timing): the synthetic lease workload isolates the wall-time
// claims — doubling the world mid-run must beat the fixed world
// (expected 0.75×, gated ≤ 0.85×), and migrating a 4× straggler must
// hold the tail within 1.6× of clean while the unmigrated run pays
// ≥ 2.5× — with every task pushed exactly once through every
// membership change.
//
// Gate 4 (serving): one hfserve replica with the autoscaler takes a
// 40-job burst: the pool must grow through the join protocol, no job
// may be lost across the resizes, and hysteresis must return the pool
// to its floor once the burst drains.
//
// Returns false if any gate fails.
func liveElastic(grace time.Duration, writeCSV func(id, content string)) bool {
	ok := true
	gate := func(name string, pass bool, detail string) {
		verdict := "PASS"
		if !pass {
			verdict = "FAIL"
			ok = false
		}
		fmt.Printf("  %-38s %-42s %s\n", name, detail, verdict)
	}

	// 6-31G rather than STO-3G for the same reason as the chaos gate: the
	// larger pair space keeps every rank drawing DLB tasks, which is what
	// the straggler detector needs to see latencies from all ranks.
	fmt.Println("== Elastic gate 1: water/6-31G, 2 ranks doubled mid-SCF via join handshake ==")
	mol, err := repro.BuiltinMolecule("water")
	check(err)
	ctx := context.Background()
	clean, err := repro.Run(ctx, mol, "6-31g", repro.Serial)
	check(err)

	tel := repro.NewTelemetry()
	m := repro.NewMembership(2, tel)
	var announced atomic.Bool
	var tickets []*cluster.JoinTicket
	plan := repro.Elastic
	plan.Ranks, plan.MaxRanks, plan.Membership = 2, 4, m
	plan.Deadline, plan.Grace = 30*time.Second, grace
	plan.SCF.Telemetry = tel
	plan.SCF.OnIteration = func(iter int, _ *repro.Result) {
		// Two single-rank candidates announce at iteration 2 of the
		// first epoch — mid-SCF, exactly when a batch scheduler would
		// hand the job freed-up nodes.
		if m.Epoch() == 0 && iter >= 2 && !announced.Swap(true) {
			tickets = append(tickets, m.Announce(1, "joiner-a"), m.Announce(1, "joiner-b"))
		}
	}
	res, err := repro.Run(ctx, mol, "6-31g", plan)
	if err != nil {
		fmt.Printf("  elastic grow run failed: %v\n", err)
		ok = false
	} else {
		trace := res.Recovery
		dE := math.Abs(res.Energy - clean.Energy)
		gate("energy invariant across grow", res.Converged && dE <= 1e-10,
			fmt.Sprintf("|dE| = %.1e Ha (tol 1e-10)", dE))
		gate("grow-restart fired once", trace.GrowRestarts == 1,
			fmt.Sprintf("grow restarts = %d", trace.GrowRestarts))
		gate("both joiners admitted", trace.JoinsCommitted == 2 && trace.FinalRanks == 4,
			fmt.Sprintf("joined = %d, final ranks = %d", trace.JoinsCommitted, trace.FinalRanks))
		handed := len(tickets) == 2
		for _, t := range tickets {
			handed = handed && t.State() == cluster.JoinCommitted && len(t.Checkpoint()) > 0
		}
		gate("checkpoint handed to joiners", handed,
			fmt.Sprintf("%d tickets committed with checkpoint", len(tickets)))
		epochs := make([]string, 0, trace.Attempts)
		for i, outcome := range trace.Outcomes {
			epochs = append(epochs, fmt.Sprintf("%d ranks/%s", trace.RanksPerAttempt[i], outcome))
		}
		fmt.Printf("  epochs: %v\n", epochs)
	}
	fmt.Println()

	// Benzene/STO-3G rather than water for the migration leg: detection
	// needs the shared latency window populated by EVERY rank, and water
	// is small enough that rank 0 can drain the whole lease cursor before
	// its peers draw at all. Benzene's ~300 pair tasks per build keep all
	// four ranks observing latencies each iteration.
	fmt.Println("== Elastic gate 2: benzene/STO-3G, 4 ranks, 6x straggler migrated off ==")
	benzene, err := repro.BuiltinMolecule("benzene")
	check(err)
	clean2, err := repro.Run(ctx, benzene, "sto-3g", repro.Serial)
	check(err)
	plan = repro.Elastic
	plan.Ranks, plan.MaxRanks = 4, 4
	plan.Deadline, plan.Grace = 30*time.Second, grace
	plan.SCF.Telemetry = repro.NewTelemetry()
	plan.MigrateK, plan.MigrateMinSamples = 2, 2
	// First attempt only: the re-hosted rank leaves the sick node behind.
	plan.Fault = &mpi.FaultPlan{Slowdowns: []mpi.Slowdown{{
		Rank: 1, Factor: 6, Sites: []mpi.FaultSite{mpi.SiteFock},
	}}}
	res2, err := repro.Run(ctx, benzene, "sto-3g", plan)
	if err != nil {
		fmt.Printf("  elastic migration run failed: %v\n", err)
		ok = false
	} else {
		trace2 := res2.Recovery
		dE := math.Abs(res2.Energy - clean2.Energy)
		gate("energy invariant across migration", res2.Converged && dE <= 1e-10,
			fmt.Sprintf("|dE| = %.1e Ha (tol 1e-10)", dE))
		gate("straggler migrated", trace2.Migrations >= 1,
			fmt.Sprintf("migrations = %d, restarts = %d", trace2.Migrations, trace2.MigrateRestarts))
	}
	fmt.Println()

	fmt.Println("== Elastic gate 3: synthetic lease workload, grow timing + migration tail ==")
	ew, err := simulate.RunElasticWorkload()
	check(err)
	fmt.Print(simulate.FormatElastic(ew))
	gate("mid-run doubling cuts wall", ew.GrowRatio <= 0.85,
		fmt.Sprintf("elastic/fixed = %.2fx (gate <= 0.85x)", ew.GrowRatio))
	gate("grow leg exactly-once", ew.FixedPushes == int64(ew.GrowTasks) && ew.ElasticPushes == int64(ew.GrowTasks),
		fmt.Sprintf("pushes %d/%d of %d", ew.FixedPushes, ew.ElasticPushes, ew.GrowTasks))
	gate("unmigrated pays the straggler", ew.UnmigratedRatio >= 2.5,
		fmt.Sprintf("unmigrated = %.2fx clean (sanity >= 2.5x)", ew.UnmigratedRatio))
	gate("migration bounds the tail", ew.MigrateDetected && ew.MigratedRatio <= 1.6,
		fmt.Sprintf("migrated = %.2fx clean (gate <= 1.6x)", ew.MigratedRatio))
	gate("migrate leg exactly-once",
		ew.MigCleanPushes == int64(ew.MigrateTasks) &&
			ew.UnmigratedPushes == int64(ew.MigrateTasks) &&
			ew.MigratedPushes == int64(ew.MigrateTasks),
		fmt.Sprintf("pushes %d/%d/%d of %d", ew.MigCleanPushes, ew.UnmigratedPushes,
			ew.MigratedPushes, ew.MigrateTasks))
	writeCSV("elastic", csvElastic(ew))
	fmt.Println()

	fmt.Println("== Elastic gate 4: hfserve autoscaler, 40-job burst through the join protocol ==")
	sv, err := service.RunElasticServe(service.ElasticServeOptions{})
	check(err)
	fmt.Printf("  pool 1 -> peak %d -> final %d; %d scale-ups, %d scale-downs; %d/%d done\n",
		sv.PeakPool, sv.FinalPool, sv.ScaleUps, sv.ScaleDowns, sv.Done, sv.Submitted)
	gate("zero jobs lost across grow", sv.Lost == 0 && sv.Done == sv.Submitted,
		fmt.Sprintf("%d submitted, %d done, %d lost", sv.Submitted, sv.Done, sv.Lost))
	gate("autoscaler grew the pool", sv.ScaleUps >= 1 && sv.PeakPool > 1,
		fmt.Sprintf("scale-ups = %d, peak = %d", sv.ScaleUps, sv.PeakPool))
	gate("scale-up rode the join protocol", sv.JoinsAnnounced >= 1 && sv.JoinsCommitted >= 1,
		fmt.Sprintf("joins announced = %d, committed = %d", sv.JoinsAnnounced, sv.JoinsCommitted))
	gate("hysteresis returned the pool", sv.ScaleDowns >= 1 && sv.FinalPool == 1,
		fmt.Sprintf("scale-downs = %d, final = %d", sv.ScaleDowns, sv.FinalPool))
	fmt.Println()

	if ok {
		fmt.Println("  elastic runtime gates: all PASS")
	}
	return ok
}

// csvElastic renders the synthetic-leg comparison as CSV.
func csvElastic(r *simulate.ElasticResult) string {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return fmt.Sprintf("leg,mode,wall_ms,ratio,pushes,tasks\n"+
		"grow,fixed,%.2f,1.00,%d,%d\n"+
		"grow,elastic,%.2f,%.2f,%d,%d\n"+
		"migrate,clean,%.2f,1.00,%d,%d\n"+
		"migrate,unmigrated,%.2f,%.2f,%d,%d\n"+
		"migrate,migrated,%.2f,%.2f,%d,%d\n",
		ms(r.FixedWall), r.FixedPushes, r.GrowTasks,
		ms(r.ElasticWall), r.GrowRatio, r.ElasticPushes, r.GrowTasks,
		ms(r.MigCleanWall), r.MigCleanPushes, r.MigrateTasks,
		ms(r.UnmigratedWall), r.UnmigratedRatio, r.UnmigratedPushes, r.MigrateTasks,
		ms(r.MigratedWall), r.MigratedRatio, r.MigratedPushes, r.MigrateTasks)
}

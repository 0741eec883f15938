package main

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/jobs"
	"repro/internal/mpi"
	"repro/internal/service"
	"repro/internal/telemetry"
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
func liveElastic(e *env) {
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
	var tickets []*mpi.JoinTicket
	plan := repro.Elastic
	plan.Ranks, plan.MaxRanks, plan.Membership = 2, 4, m
	plan.Deadline, plan.Grace = 30*time.Second, e.grace
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
	if e.check("elastic grow run completes", err == nil, errDetail(err)) {
		trace := res.Recovery
		dE := math.Abs(res.Energy - clean.Energy)
		e.check("energy invariant across grow", res.Converged && dE <= 1e-10,
			fmt.Sprintf("|dE| = %.1e Ha (tol 1e-10)", dE))
		e.check("grow-restart fired once", trace.GrowRestarts == 1,
			fmt.Sprintf("grow restarts = %d", trace.GrowRestarts))
		e.check("both joiners admitted", trace.JoinsCommitted == 2 && trace.FinalRanks == 4,
			fmt.Sprintf("joined = %d, final ranks = %d", trace.JoinsCommitted, trace.FinalRanks))
		handed := len(tickets) == 2
		for _, t := range tickets {
			handed = handed && t.State() == mpi.JoinCommitted && len(t.Checkpoint()) > 0
		}
		e.check("checkpoint handed to joiners", handed,
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
	plan.Deadline, plan.Grace = 30*time.Second, e.grace
	plan.SCF.Telemetry = repro.NewTelemetry()
	plan.MigrateK = 2
	// First attempt only: the re-hosted rank leaves the sick node behind.
	plan.Fault = &mpi.FaultPlan{Slowdowns: []mpi.Slowdown{{
		Rank: 1, Factor: 6, Sites: []mpi.FaultSite{mpi.SiteFock},
	}}}
	res2, err := repro.Run(ctx, benzene, "sto-3g", plan)
	if e.check("elastic migration run completes", err == nil, errDetail(err)) {
		trace2 := res2.Recovery
		dE := math.Abs(res2.Energy - clean2.Energy)
		e.check("energy invariant across migration", res2.Converged && dE <= 1e-10,
			fmt.Sprintf("|dE| = %.1e Ha (tol 1e-10)", dE))
		e.check("straggler migrated", trace2.Migrations >= 1,
			fmt.Sprintf("migrations = %d, restarts = %d", trace2.Migrations, trace2.MigrateRestarts))
	}
	fmt.Println()

	fmt.Println("== Elastic gate 3: synthetic lease workload, grow timing + migration tail ==")
	ew, err := runElasticWorkload()
	check(err)
	e.emit(ew.table())
	fmt.Printf("  straggler detected: %v\n", ew.detected)
	growTotal, migTotal := int64(growRounds*growTasks), int64(migrateRounds*migrateTasks)
	e.check("mid-run doubling cuts wall", ew.elastic.over(ew.fixed) <= 0.85,
		fmt.Sprintf("elastic/fixed = %.2fx (gate <= 0.85x)", ew.elastic.over(ew.fixed)))
	e.check("grow leg exactly-once", ew.fixed.pushes == growTotal && ew.elastic.pushes == growTotal,
		fmt.Sprintf("pushes %d/%d of %d", ew.fixed.pushes, ew.elastic.pushes, growTotal))
	e.check("unmigrated pays the straggler", ew.unmigrated.over(ew.migClean) >= 2.5,
		fmt.Sprintf("unmigrated = %.2fx clean (sanity >= 2.5x)", ew.unmigrated.over(ew.migClean)))
	e.check("migration bounds the tail", ew.detected && ew.migrated.over(ew.migClean) <= 1.6,
		fmt.Sprintf("migrated = %.2fx clean (gate <= 1.6x)", ew.migrated.over(ew.migClean)))
	e.check("migrate leg exactly-once",
		ew.migClean.pushes == migTotal && ew.unmigrated.pushes == migTotal && ew.migrated.pushes == migTotal,
		fmt.Sprintf("pushes %d/%d/%d of %d", ew.migClean.pushes, ew.unmigrated.pushes, ew.migrated.pushes, migTotal))
	fmt.Println()

	fmt.Println("== Elastic gate 4: hfserve autoscaler, 40-job burst through the join protocol ==")
	sv, err := runElasticServe()
	check(err)
	fmt.Printf("  pool 1 -> peak %d -> final %d; %d scale-ups, %d scale-downs; %d/%d done in %v\n",
		sv.peakPool, sv.finalPool, sv.scaleUps, sv.scaleDowns, sv.done, burstJobs, sv.wall.Round(time.Millisecond))
	e.check("zero jobs lost across grow", sv.done == burstJobs,
		fmt.Sprintf("%d submitted, %d done, %d lost", burstJobs, sv.done, burstJobs-sv.done))
	e.check("autoscaler grew the pool", sv.scaleUps >= 1 && sv.peakPool > 1,
		fmt.Sprintf("scale-ups = %d, peak = %d", sv.scaleUps, sv.peakPool))
	e.check("scale-up rode the join protocol", sv.joinsAnnounced >= 1 && sv.joinsCommitted >= 1,
		fmt.Sprintf("joins announced = %d, committed = %d", sv.joinsAnnounced, sv.joinsCommitted))
	e.check("hysteresis returned the pool", sv.scaleDowns >= 1 && sv.finalPool == 1,
		fmt.Sprintf("scale-downs = %d, final = %d", sv.scaleDowns, sv.finalPool))
}

// The elastic serving burst: size (distinct specs) and autoscaler ceiling.
const (
	burstJobs    = 40
	burstMaxPool = 8
)

// elasticServeResult is the outcome of the elastic serving run.
type elasticServeResult struct {
	done           int // burst jobs that reached Done
	peakPool       int
	finalPool      int
	scaleUps       int64
	scaleDowns     int64
	joinsAnnounced int64
	joinsCommitted int64
	wall           time.Duration
}

// runElasticServe boots one hfserve replica with a single worker, an
// attached membership and the telemetry-driven autoscaler, then sends it
// a burst of distinct submissions over real HTTP and watches the pool:
// it must grow through the join protocol while the burst is queued, lose
// no job across the resizes, and shrink back to its floor once the burst
// drains. It returns an error only on harness failures (bind, HTTP
// transport); the gates belong to the caller.
func runElasticServe() (*elasticServeResult, error) {
	tel := telemetry.NewSession()
	s, err := service.New(service.Config{
		Workers:        1,
		QueueCap:       2 * burstJobs,
		DefaultTimeout: time.Minute,
		Telemetry:      tel,
	})
	if err != nil {
		return nil, err
	}
	s.AttachMembership(mpi.NewMembership(1, tel))
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.StartAutoscaler(service.AutoscalerConfig{
		Min: 1, Max: burstMaxPool,
		Interval:       10 * time.Millisecond,
		DownAfterTicks: 5,
	})
	api := newAPIClient(addr)
	defer func() {
		api.hangUp()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.Drain(ctx) // teardown: a drain that times out has canceled its jobs
		cancel()
	}()
	res := &elasticServeResult{}
	start := time.Now()

	// The burst: distinct specs (MaxIter varies) so every job pays for a
	// real SCF run — no cache hits to hide lost work behind. Water rather
	// than H2 so one worker cannot drain the burst as fast as it arrives;
	// the queue must actually back up for the autoscaler to see it.
	for i := 0; i < burstJobs; i++ {
		spec := jobs.Spec{Molecule: "water", Basis: "sto-3g", Mode: jobs.ModeSerial, MaxIter: 20 + i}
		if _, _, err := api.submit(spec); err != nil {
			return nil, fmt.Errorf("submit %d: %w", i, err)
		}
	}

	// Track the pool peak while the burst drains; a job that never
	// reaches Done is lost, which the caller gates on.
	_ = poll(2*time.Minute, "burst done", func() bool {
		res.peakPool = max(res.peakPool, s.WorkerCount())
		res.done, err = api.count(jobs.StateDone)
		return err != nil || res.done == burstJobs
	})
	if err != nil {
		return nil, err
	}
	// Let hysteresis return the pool to the floor; finalPool says whether it did.
	_ = poll(5*time.Second, "pool at floor", func() bool { return s.WorkerCount() == 1 })
	res.finalPool = s.WorkerCount()
	res.scaleUps = tel.Counter("elastic.scale_up").Value()
	res.scaleDowns = tel.Counter("elastic.scale_down").Value()
	res.joinsAnnounced = tel.Counter("elastic.joins.announced").Value()
	res.joinsCommitted = tel.Counter("elastic.joins.committed").Value()
	res.wall = time.Since(start)
	return res, nil
}

package main

// Synthetic lease-DLB workloads: the measured counterparts of the
// straggler and membership stories. Where the simulator prices faults
// analytically, these are LIVE micro-benchmarks on the in-process
// runtime with a fixed task cost and coarse chunked draws — the
// configuration where one slow rank stalls the whole tail — so the
// wall-time claims of hedging, growing and migrating can be gated.
//
// Every run pushes each task's "contribution" as a fetch-and-add on a
// shared counter inside the Reserve→push→Finish critical section, so
// the final count doubles as an exactly-once audit: it must equal the
// task count in every mode, speculation or membership change or not.

import (
	"fmt"
	"time"

	"repro/internal/ddi"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

const (
	leaseTaskCost = 5 * time.Millisecond
	leaseSlowRank = 1 // the straggler of the chaos and migrate workloads
	leaseSlowBy   = 4 // its slowdown factor

	// Chaos workload: clean per-rank work is one chunk of
	// chaosTasks/chaosRanks tasks; the gate bounds the mitigated wall at
	// 1.6× clean against an unmitigated ~leaseSlowBy×.
	chaosRanks = 4
	chaosTasks = 48

	// Elastic grow leg: per-round work is constant, so doubling the world
	// for the second half of the rounds should cut that half's wall in
	// half — expected ratio 0.75, gated ≤ 0.85.
	growBaseRanks = 2
	growRounds    = 8
	growTasks     = 8 // per round; divisible by both world sizes

	// Elastic migrate leg: detection needs one round of samples, so the
	// expected migrated tail is (leaseSlowBy + rounds-1)/rounds ≈ 1.375×
	// clean, gated ≤ 1.6×.
	migrateRanks  = 4
	migrateRounds = 8
	migrateTasks  = 12 // per round
)

// leaseRun is one timed run of a synthetic workload.
type leaseRun struct {
	wall   time.Duration
	pushes int64 // the exactly-once audit: must equal the task count
}

// over returns r's wall as a multiple of base's.
func (r leaseRun) over(base leaseRun) float64 { return float64(r.wall) / float64(base.wall) }

// leaseWorld runs body on a fresh world of the given size that shares
// one push counter window, and returns the timed run plus its telemetry.
func leaseWorld(ranks int, fault *mpi.FaultPlan, body func(c *mpi.Comm, dx *ddi.Context, push *mpi.Win)) (leaseRun, *telemetry.Session, error) {
	tel := telemetry.NewSession()
	var run leaseRun
	start := time.Now()
	_, err := mpi.RunWithOptions(ranks, mpi.RunOptions{Deadline: 30 * time.Second, Fault: fault, Telemetry: tel},
		func(c *mpi.Comm) {
			push := c.WinCreate(0, 1)
			body(c, ddi.New(c), push)
			c.Barrier()
			if c.Rank() == 0 {
				run.pushes = push.Load(0)
			}
		})
	run.wall = time.Since(start)
	return run, tel, err
}

// leaseRound runs one lease-DLB round of n tasks through ddi's drain —
// the loop the resilient Fock build runs — with one chunk of n/ranks
// tasks per draw and the exactly-once push inside Reserve→Finish. With
// hedge set, fast ranks also recompute the outstanding leases of ranks
// the straggler detector flags; first writer wins.
func leaseRound(c *mpi.Comm, dx *ddi.Context, push *mpi.Win, n int, hedge bool, task func()) {
	l := dx.NewLeaseDLB(n)
	l.Drain(max(n/c.Size(), 1), hedge, func(idx, owner int) {
		t0 := time.Now()
		task()
		elapsed := time.Since(t0)
		elapsed += c.TaskStall(mpi.SiteFock, elapsed)
		dx.ObserveTaskLatency(elapsed)
		if l.Reserve(idx, owner) {
			push.FetchAdd(0, 1)
			l.Finish(idx)
		}
	}, nil)
	c.Barrier()
}

func leaseTask() { time.Sleep(leaseTaskCost) }

// chaosResult compares the same 48 tasks three ways: clean; unmitigated
// (rank 1 runs 4× slow via a sustained mpi.Slowdown at the task site and
// nobody helps, so the job finishes at the straggler's pace); mitigated
// (same slowdown, but fast ranks hedge the flagged rank's leases).
type chaosResult struct {
	clean, unmitigated, mitigated leaseRun
	// Mitigated-run telemetry: hedges fired, total speculative
	// re-issues, and duplicate results dropped by first-writer-wins.
	hedged, reissued, deduped int64
}

func runChaosWorkload() (*chaosResult, error) {
	slow := &mpi.FaultPlan{Slowdowns: []mpi.Slowdown{{
		Rank: leaseSlowRank, Factor: leaseSlowBy, Sites: []mpi.FaultSite{mpi.SiteFock},
	}}}
	mode := func(fault *mpi.FaultPlan, hedge bool) (leaseRun, *telemetry.Session, error) {
		return leaseWorld(chaosRanks, fault, func(c *mpi.Comm, dx *ddi.Context, push *mpi.Win) {
			leaseRound(c, dx, push, chaosTasks, hedge, leaseTask)
		})
	}
	res := &chaosResult{}
	var err error
	if res.clean, _, err = mode(nil, false); err != nil {
		return nil, fmt.Errorf("clean run: %w", err)
	}
	if res.unmitigated, _, err = mode(slow, false); err != nil {
		return nil, fmt.Errorf("unmitigated run: %w", err)
	}
	var tel *telemetry.Session
	if res.mitigated, tel, err = mode(slow, true); err != nil {
		return nil, fmt.Errorf("mitigated run: %w", err)
	}
	res.hedged = tel.Counter("dlb.hedged").Value()
	res.reissued = tel.Counter("dlb.reissued").Value()
	res.deduped = tel.Counter("dlb.dedup_dropped").Value()
	return res, nil
}

func (r *chaosResult) table() *table {
	t := newTable("mode", "wall_ms", "ratio_vs_clean", "pushes", "hedged", "reissued", "dedup_dropped")
	t.row("clean", ms(r.clean.wall), "1.00", r.clean.pushes, "", "", "")
	t.row("unmitigated", ms(r.unmitigated.wall), f2(r.unmitigated.over(r.clean)), r.unmitigated.pushes, "", "", "")
	t.row("mitigated", ms(r.mitigated.wall), f2(r.mitigated.over(r.clean)), r.mitigated.pushes,
		r.hedged, r.reissued, r.deduped)
	return t
}

// elasticResult isolates the two elastic transitions.
//
// Grow leg: the same schedule runs twice. fixed keeps growBaseRanks
// ranks for all rounds; elastic executes the first half at growBaseRanks
// and the second half at twice that — two membership epochs, exactly
// how the elastic SCF driver restarts a grown world at an iteration
// boundary.
//
// Migrate leg: one rank runs leaseSlowBy× slow. Unmigrated, the sickness
// persists all rounds. Migrated, rank 0 checks the straggler detector at
// each round boundary and — once the slow rank is flagged — "re-hosts"
// it: the slowness stops, modeling the rank landing on a healthy node
// (the flag is a shared one-sided counter, since a real fault plan
// cannot be edited mid-run).
type elasticResult struct {
	fixed, elastic                 leaseRun
	migClean, unmigrated, migrated leaseRun
	detected                       bool // the straggler detector flagged the slow rank
}

func runElasticWorkload() (*elasticResult, error) {
	// epoch runs rounds [lo, hi) of the grow schedule on one world.
	epoch := func(ranks, lo, hi int) (leaseRun, error) {
		run, _, err := leaseWorld(ranks, nil, func(c *mpi.Comm, dx *ddi.Context, push *mpi.Win) {
			for round := lo; round < hi; round++ {
				leaseRound(c, dx, push, growTasks, false, leaseTask)
			}
		})
		return run, err
	}
	res := &elasticResult{}
	var err error
	if res.fixed, err = epoch(growBaseRanks, 0, growRounds); err != nil {
		return nil, fmt.Errorf("fixed run: %w", err)
	}
	first, err := epoch(growBaseRanks, 0, growRounds/2)
	if err != nil {
		return nil, fmt.Errorf("elastic epoch 0: %w", err)
	}
	second, err := epoch(2*growBaseRanks, growRounds/2, growRounds)
	if err != nil {
		return nil, fmt.Errorf("elastic epoch 1: %w", err)
	}
	res.elastic = leaseRun{wall: first.wall + second.wall, pushes: first.pushes + second.pushes}

	// migrate runs the migrate schedule; slow injects the in-workload
	// slowdown, mitigate lets rank 0 re-host the flagged rank.
	migrate := func(slow, mitigate bool) (leaseRun, error) {
		run, _, err := leaseWorld(migrateRanks, nil, func(c *mpi.Comm, dx *ddi.Context, push *mpi.Win) {
			migrated := c.WinCreate(0, 1)
			for round := 0; round < migrateRounds; round++ {
				leaseRound(c, dx, push, migrateTasks, false, func() {
					cost := leaseTaskCost
					// The sick host: slow until the migration flag is raised
					// (the rank's leases land on a healthy node afterwards).
					if slow && c.Rank() == leaseSlowRank && migrated.Load(0) == 0 {
						cost *= leaseSlowBy
					}
					time.Sleep(cost)
				})
				// Round boundary = iteration boundary: the detector reads the
				// shared latency window and rank 0 re-hosts the flagged rank.
				if mitigate && c.Rank() == 0 && migrated.Load(0) == 0 {
					if flagged := dx.Stragglers(2, 2); len(flagged) > 0 {
						res.detected = true
						migrated.Store(0, 1)
					}
				}
				c.Barrier()
			}
		})
		return run, err
	}
	if res.migClean, err = migrate(false, false); err != nil {
		return nil, fmt.Errorf("migrate clean run: %w", err)
	}
	if res.unmigrated, err = migrate(true, false); err != nil {
		return nil, fmt.Errorf("unmigrated run: %w", err)
	}
	if res.migrated, err = migrate(true, true); err != nil {
		return nil, fmt.Errorf("migrated run: %w", err)
	}
	return res, nil
}

func (r *elasticResult) table() *table {
	t := newTable("leg", "mode", "wall_ms", "ratio", "pushes", "tasks")
	grow, mig := growRounds*growTasks, migrateRounds*migrateTasks
	t.row("grow", "fixed", ms(r.fixed.wall), "1.00", r.fixed.pushes, grow)
	t.row("grow", "elastic", ms(r.elastic.wall), f2(r.elastic.over(r.fixed)), r.elastic.pushes, grow)
	t.row("migrate", "clean", ms(r.migClean.wall), "1.00", r.migClean.pushes, mig)
	t.row("migrate", "unmigrated", ms(r.unmigrated.wall), f2(r.unmigrated.over(r.migClean)), r.unmigrated.pushes, mig)
	t.row("migrate", "migrated", ms(r.migrated.wall), f2(r.migrated.over(r.migClean)), r.migrated.pushes, mig)
	return t
}

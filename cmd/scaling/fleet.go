package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/internal/service"
)

// The fleet chaos experiment: three hfserve replicas with write-ahead
// logs and consistent-hash cache sharding serve a duplicate-heavy
// workload of >= 1000 submissions over real HTTP. The run happens twice
// — once clean (baseline) and once with one replica SIGKILL'd mid-run
// and restarted from its WAL — and the gates assert that the kill is
// invisible at the serving contract level:
//
//	≥ 1000 storm submissions per pass   the load actually ran at scale
//	zero lost jobs, zero failed jobs    every job acknowledged by any replica
//	                                    (including those queued on the victim at
//	                                    the kill instant) reaches a terminal state
//	exactly-once execution per hash     WAL dedup + peer fetch prevent both loss
//	                                    AND duplicated SCF work, across every
//	                                    surviving replica incarnation
//	WAL backlog re-enqueued ≥ 1         the crash-replay path provably ran
//	hit-rate gap ≤ 5 points vs baseline the kill is invisible to cache
//	                                    effectiveness
//
// The kill is simulated in-process with Server.Kill — the WAL stops
// accepting appends atomically (nothing after the kill instant reaches
// disk), the listener hard-closes, and the recovery path is a fresh
// Server over the same WAL directory, exactly the code path a process
// restart takes.
func liveFleet(e *env) {
	rep, err := runFleet(fullFleet)
	check(err)
	fmt.Println()
	e.emit(rep.table())
	base, chaos := rep.baseline, rep.chaos
	fmt.Printf("  hit-rate gap: %.2f points (killed replica: %s)\n\n", rep.hitRateGap(), fleetVictim)

	e.check("storm load >= 1000 jobs per pass",
		base.storm.submitted >= 1000 && chaos.storm.submitted >= 1000,
		fmt.Sprintf("baseline %d, chaos %d", base.storm.submitted, chaos.storm.submitted))
	e.check("zero lost jobs", base.lost == 0 && chaos.lost == 0,
		fmt.Sprintf("baseline %d, chaos %d", base.lost, chaos.lost))
	e.check("zero failed/canceled jobs", base.failed == 0 && chaos.failed == 0,
		fmt.Sprintf("baseline %d, chaos %d", base.failed, chaos.failed))
	e.check("exactly-once execution per hash",
		base.minExec == 1 && base.maxExec == 1 && chaos.minExec == 1 && chaos.maxExec == 1,
		fmt.Sprintf("baseline %d..%d, chaos %d..%d", base.minExec, base.maxExec, chaos.minExec, chaos.maxExec))
	e.check("WAL backlog re-enqueued after kill", chaos.reenqueued >= 1,
		fmt.Sprintf("%d jobs replayed on restarted %s", chaos.reenqueued, fleetVictim))
	e.check("hit-rate gap <= 5 points", rep.hitRateGap() <= 5,
		fmt.Sprintf("%.2f points (%.1f%% vs %.1f%%)", rep.hitRateGap(), base.storm.hitRate(), chaos.storm.hitRate()))
}

// The fleet's shape. Only the load varies between the gate and its
// scaled-down tier-1 test, so only the load is a parameter.
const (
	fleetReplicas = 3
	fleetWorkers  = 2
	fleetVictim   = "r1" // the replica the chaos pass kills
)

// fleetLoad sizes one pass: storm submissions, distinct content hashes
// in the storm, concurrent storm clients, and jobs parked on the kill
// target's queue.
type fleetLoad struct{ jobs, distinct, clients, victims int }

var fullFleet = fleetLoad{jobs: 1000, distinct: 25, clients: 8, victims: 4}

// fleetPhase is the client-side accounting of one storm phase.
type fleetPhase struct {
	submitted int // POSTs admitted (429 bounces are retried, not counted)
	hits      int // answered from a local or peer cache
	accepted  int // 202 accepted or coalesced
	retries   int // 429 bounces absorbed
}

// hitRate returns the client-observed cache hit-rate in percent.
func (p fleetPhase) hitRate() float64 {
	if p.submitted == 0 {
		return 0
	}
	return 100 * float64(p.hits) / float64(p.submitted)
}

// fleetRun is the outcome of one full fleet pass (baseline or chaos).
type fleetRun struct {
	storm      fleetPhase
	warmupJobs int
	victimJobs int
	distinct   int
	lost       int // accepted jobs still queued or running a minute after the storm
	failed     int // terminal failed/canceled jobs fleet-wide
	maxExec    int // max executions of any one hash across replicas
	minExec    int // min executions of any one hash across replicas
	reenqueued int // WAL-replayed backlog on the restarted replica (chaos only)
	wall       time.Duration
}

// fleetReport is the full experiment: baseline vs. chaos.
type fleetReport struct{ baseline, chaos fleetRun }

// hitRateGap returns |baseline - chaos| aggregate hit-rate in
// percentage points.
func (r *fleetReport) hitRateGap() float64 {
	return math.Abs(r.baseline.storm.hitRate() - r.chaos.storm.hitRate())
}

func (r *fleetReport) table() *table {
	t := newTable("pass", "storm_submissions", "cache_hits", "hit_rate_pct", "retries_429", "warmup_jobs",
		"victim_jobs", "distinct_hashes", "min_exec", "max_exec", "lost", "failed", "reenqueued", "wall_ms")
	for _, p := range []struct {
		name string
		run  fleetRun
	}{{"baseline", r.baseline}, {"chaos", r.chaos}} {
		t.row(p.name, p.run.storm.submitted, p.run.storm.hits, f2(p.run.storm.hitRate()), p.run.storm.retries,
			p.run.warmupJobs, p.run.victimJobs, p.run.distinct, p.run.minExec, p.run.maxExec,
			p.run.lost, p.run.failed, p.run.reenqueued, p.run.wall.Milliseconds())
	}
	return t
}

// fleet is one booted replica group: servers, their API clients, and
// the distinct storm content.
type fleet struct {
	names   []string
	servers map[string]*service.Server
	addrs   map[string]string
	api     map[string]*apiClient
	walRoot string // temp parent of the per-replica WAL directories; close removes it
	specs   []jobs.Spec
	hashes  []string   // canonical hashes of specs
	mu      sync.Mutex // guards the fleetPhase a storm's clients share
}

func (h *fleet) serverConfig(name string) service.Config {
	return service.Config{
		Workers:        fleetWorkers,
		QueueCap:       64,
		DefaultTimeout: time.Minute,
		WALDir:         filepath.Join(h.walRoot, name),
		WALNoSync:      true, // fsync fidelity is covered by the WAL unit tests; the gate is about replay
	}
}

// bootFleet starts fleetReplicas servers with WALs under a fresh temp
// directory and joins them.
func bootFleet(distinct int) (*fleet, error) {
	root, err := os.MkdirTemp("", "hffleet-*")
	if err != nil {
		return nil, err
	}
	h := &fleet{
		servers: map[string]*service.Server{},
		addrs:   map[string]string{},
		api:     map[string]*apiClient{},
		walRoot: root,
	}
	for i := 0; i < fleetReplicas; i++ {
		name := fmt.Sprintf("r%d", i)
		s, err := service.New(h.serverConfig(name))
		if err == nil {
			h.names, h.servers[name] = append(h.names, name), s
			h.addrs[name], err = s.Start("127.0.0.1:0")
		}
		if err != nil {
			h.close()
			return nil, fmt.Errorf("boot %s: %w", name, err)
		}
		h.api[name] = newAPIClient(h.addrs[name])
	}
	for _, name := range h.names {
		h.servers[name].ConfigureFleet(name, h.addrs)
	}
	for i := 0; i < distinct; i++ {
		spec := jobs.Spec{Molecule: "h2", Basis: "sto-3g", Mode: jobs.ModeSerial, MaxIter: 101 + i}
		hash, err := spec.CanonicalHash()
		if err != nil {
			h.close()
			return nil, err
		}
		h.specs, h.hashes = append(h.specs, spec), append(h.hashes, hash)
	}
	return h, nil
}

// close gracefully drains every live replica and removes the WAL root.
func (h *fleet) close() {
	for _, c := range h.api {
		c.hangUp()
	}
	for _, s := range h.servers {
		if !s.Killed() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			_ = s.Drain(ctx) // teardown: a drain that times out has canceled its jobs
			cancel()
		}
	}
	os.RemoveAll(h.walRoot)
}

// owner returns the replica the ring assigns hash to.
func (h *fleet) owner(hash string) string {
	ring, _ := h.servers[h.names[0]].Fleet()
	return ring.Owner(hash)
}

// submit POSTs spec to the named replica and tallies the admitted
// answer into phase (nil discards it).
func (h *fleet) submit(name string, spec jobs.Spec, phase *fleetPhase) error {
	out, rejected, err := h.api[name].submit(spec)
	if err != nil {
		return fmt.Errorf("replica %s: %w", name, err)
	}
	if phase == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	phase.submitted++
	phase.retries += rejected
	if out.Cached {
		phase.hits++
	} else {
		phase.accepted++
	}
	return nil
}

// warmup executes every distinct spec once (routing finds the ring
// owner) and then touches it on every replica so all local caches hold
// every hash — after this, the duplicate storm is all cache hits and the
// kill window cannot force a recomputation of warm content.
func (h *fleet) warmup(run *fleetRun) error {
	for i, spec := range h.specs {
		if err := h.submit(h.names[i%len(h.names)], spec, nil); err != nil {
			return err
		}
		// Wait for the owner (whoever that is) to finish and cache it.
		if err := h.api[h.owner(h.hashes[i])].awaitCached(h.hashes[i], 30*time.Second); err != nil {
			return err
		}
		// Touch on every replica: a local miss peer-fetches and installs.
		for _, name := range h.names {
			if err := h.submit(name, spec, nil); err != nil {
				return err
			}
		}
		run.warmupJobs += 1 + len(h.names)
	}
	return nil
}

// storm drives n duplicate submissions round-robin across replicas from
// the given number of concurrent clients.
func (h *fleet) storm(n, clients int, run *fleetRun) error {
	var wg sync.WaitGroup
	errCh := make(chan error, clients) // one slot per client: a failing client never blocks
	per := n / clients
	for c := 0; c < clients; c++ {
		count := per
		if c == 0 {
			count += n % clients
		}
		wg.Add(1)
		go func(c, count int) {
			defer wg.Done()
			for i := 0; i < count; i++ {
				k := c*per + i
				if err := h.submit(h.names[k%len(h.names)], h.specs[k%len(h.specs)], &run.storm); err != nil {
					errCh <- err
					return
				}
			}
		}(c, count)
	}
	wg.Wait()
	close(errCh)
	return <-errCh
}

// victimSpecs crafts jobs the ring assigns to the kill target, so the
// restarted replica provably replays and completes them. MaxIter varies
// the canonical hash without changing the physics budget materially.
// They are ~150 ms jobs (methane/6-31G(d)): an H2 job finishes inside the
// few milliseconds between its submission and the kill about one run in
// three, and then nothing is left to re-enqueue.
func (h *fleet) victimSpecs(n int) (specs []jobs.Spec, hashes []string, err error) {
	for iter := 301; len(specs) < n; iter++ {
		spec := jobs.Spec{Molecule: "methane", Basis: "6-31g(d)", Mode: jobs.ModeSerial, MaxIter: iter}
		hash, err := spec.CanonicalHash()
		if err != nil {
			return nil, nil, err
		}
		if h.owner(hash) == fleetVictim {
			specs, hashes = append(specs, spec), append(hashes, hash)
		}
	}
	return specs, hashes, nil
}

// restart replaces the killed replica: a fresh Server over the same WAL
// directory, rebound to the same address, rejoined to the fleet.
func (h *fleet) restart(name string) (*service.Server, error) {
	s, err := service.New(h.serverConfig(name))
	if err != nil {
		return nil, fmt.Errorf("restart %s: %w", name, err)
	}
	s.ConfigureFleet(name, h.addrs)
	// The killed listener releases its port asynchronously; retry the bind.
	err = poll(10*time.Second, "rebinding "+name+" on "+h.addrs[name], func() bool {
		_, err := s.Start(h.addrs[name])
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	h.servers[name] = s
	return s, nil
}

// tally sums, over every replica's list endpoint, the jobs in any of the
// given states.
func (h *fleet) tally(states ...jobs.State) (total int, err error) {
	for _, name := range h.names {
		for _, state := range states {
			n, err := h.api[name].count(state)
			if err != nil {
				return 0, fmt.Errorf("listing %s on %s: %w", state, name, err)
			}
			total += n
		}
	}
	return total, nil
}

// audit fills the loss/exactly-once fields of run: a job still queued or
// running a minute after the last submission is lost, failed or canceled
// anywhere is a loss of acknowledged work, and each hash must have been
// computed by exactly one SCF run across all replica incarnations.
func (h *fleet) audit(run *fleetRun, allHashes []string) (err error) {
	_ = poll(time.Minute, "fleet quiescent", func() bool { // a timeout is reported as run.lost
		run.lost, err = h.tally(jobs.StateQueued, jobs.StateRunning)
		return err != nil || run.lost == 0
	})
	if err != nil {
		return err
	}
	if run.failed, err = h.tally(jobs.StateFailed, jobs.StateCanceled); err != nil {
		return err
	}
	totals := map[string]int{}
	for _, s := range h.servers {
		for hash, n := range s.Executions() {
			totals[hash] += n
		}
	}
	run.minExec, run.maxExec = math.MaxInt, 0
	for _, hash := range allHashes {
		run.minExec, run.maxExec = min(run.minExec, totals[hash]), max(run.maxExec, totals[hash])
	}
	run.distinct = len(allHashes)
	return nil
}

// runFleetPass executes one full pass. kill == "" is the baseline; a
// replica name is the chaos pass: half the storm, park victim jobs on
// the target's queue, SIGKILL it, restart it from its WAL, verify the
// backlog replays, then finish the storm.
func runFleetPass(load fleetLoad, kill string) (run fleetRun, err error) {
	h, err := bootFleet(load.distinct)
	if err != nil {
		return run, err
	}
	// The audit runs over HTTP, so the drain happens after it, here.
	defer h.close()
	start := time.Now()

	fmt.Printf("  warmup: %d distinct specs across %d replicas\n", load.distinct, fleetReplicas)
	if err := h.warmup(&run); err != nil {
		return run, fmt.Errorf("warmup: %w", err)
	}
	allHashes := append([]string{}, h.hashes...)

	half := load.jobs / 2
	if err := h.storm(half, load.clients, &run); err != nil {
		return run, fmt.Errorf("storm first half: %w", err)
	}

	if kill != "" {
		specs, hashes, err := h.victimSpecs(load.victims)
		if err != nil {
			return run, err
		}
		allHashes = append(allHashes, hashes...)
		for _, spec := range specs {
			// Accepted (202 + WAL accept) on the victim; with the storm
			// paused the first two start at once and outlast the immediate
			// kill, the rest wait behind them — the gate needs at least one
			// still pending.
			if err := h.submit(kill, spec, nil); err != nil {
				return run, fmt.Errorf("victim submit: %w", err)
			}
			run.victimJobs++
		}
		fmt.Printf("  SIGKILL %s with %d victim jobs parked (storm at %d/%d)\n", kill, run.victimJobs, half, load.jobs)
		h.servers[kill].Kill()

		restarted, err := h.restart(kill)
		if err != nil {
			return run, err
		}
		run.reenqueued = restarted.RecoveredBacklog()
		fmt.Printf("  restarted %s: %d jobs re-enqueued from WAL, %d terminal replayed\n",
			kill, restarted.RecoveredBacklog(), restarted.RecoveredDone())
		// The replayed backlog must complete before the storm resumes.
		for _, hash := range hashes {
			if err := h.api[kill].awaitCached(hash, 30*time.Second); err != nil {
				return run, fmt.Errorf("replayed victim: %w", err)
			}
		}
	}

	if err := h.storm(load.jobs-half, load.clients, &run); err != nil {
		return run, fmt.Errorf("storm second half: %w", err)
	}
	if err := h.audit(&run, allHashes); err != nil {
		return run, err
	}
	run.wall = time.Since(start)
	return run, nil
}

// runFleet executes the full experiment: baseline pass, then chaos pass
// with fleetVictim killed and restarted.
func runFleet(load fleetLoad) (*fleetReport, error) {
	rep := &fleetReport{}
	var err error
	fmt.Println("baseline pass (no kill):")
	if rep.baseline, err = runFleetPass(load, ""); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	fmt.Printf("chaos pass (kill %s mid-storm):\n", fleetVictim)
	if rep.chaos, err = runFleetPass(load, fleetVictim); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	return rep, nil
}

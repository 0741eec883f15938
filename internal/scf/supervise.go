package scf

// The supervisor: the one place an MPI world is launched, and the
// SCF-level half of the fault-tolerance story. Run launches the world a
// Plan describes and, when a rank dies or wedges, applies the plan's
// recovery policy — modeling what GAMESS achieves with PUNCH-file
// restarts, but automatically, inside one call:
//
//   - None: one attempt; a rank failure is the run's error. (With
//     AlgResilientFock the Fock build itself absorbs a death — survivors
//     re-issue the dead rank's task leases — and the SCF finishes in
//     place: "in-build recovery", under every policy.)
//
//   - CheckpointShrink: rank 0 checkpoints every iteration through the
//     EncodeCheckpoint/LoadCheckpoint serialization (held in memory; a
//     file is just another io.Reader/Writer for the same functions). On
//     failure the world shrinks to the survivors and restarts from the
//     last CRC-verified checkpoint; a corrupt or missing one is diagnosed
//     and the restart falls back to the standard guess.
//
//   - ElasticEpoch: the world size is governed by an mpi.Membership.
//     JOIN (grow-restart): candidates Announce a ticket, which the
//     membership appends under its lock; at the next iteration boundary
//     rank 0 — the checkpoint writer, so it holds the freshest verified
//     state — begins the checkpoint handshake, the running epoch stops
//     collectively (the same max-allreduce gate a context cancel uses, with
//     an ErrRebalance cause), the joins commit, and the next epoch restarts
//     at the larger size from the checkpoint. MIGRATE: when the EWMA
//     straggler detector flags a rank, the epoch stops at the iteration
//     boundary — the lease window is fully drained there — the flagged rank
//     is re-hosted (the fault schedule that modeled the sick node does not
//     follow it), and the run resumes from the checkpoint at the same size.
//     SHRINK: rank death is handled as under CheckpointShrink, with the
//     membership recording the transition.
//
//   - ParitySalvage (ABFT tiles): no checkpoint and no restart from
//     scratch. The survivors' windows stay readable, every tile the dead
//     rank owned is reconstructed from the parity tiles, and a shrunken
//     world resumes the interrupted iteration in place (tiled.go).
//
// The energy is invariant under all of it: neither the checkpointed
// density nor the salvaged tiles depend on the rank count.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/ddi"
	"repro/internal/fock"
	"repro/internal/integrals"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// Policy is the supervisor's recovery policy (see the file comment).
type Policy int

const (
	None Policy = iota
	CheckpointShrink
	ElasticEpoch
	ParitySalvage
)

var policyNames = [...]string{"none", "checkpoint-shrink", "elastic-epoch", "parity-salvage"}

func (p Policy) String() string { return policyNames[p] }

// budget is how many membership transitions (shrinks, grows, migrations,
// parity resumes) the policy allows after the first attempt.
func (p Policy) budget() int {
	switch p {
	case None:
		return 0
	case ElasticEpoch:
		return 6
	}
	return 3
}

// checkpoints reports whether the policy restarts from rank 0's
// per-iteration checkpoint.
func (p Policy) checkpoints() bool { return p == CheckpointShrink || p == ElasticEpoch }

// defaultDeadline bounds every blocking runtime operation of a
// recovering policy: it is how a wedged rank is noticed at all.
const defaultDeadline = 30 * time.Second

// migrateMinSamples is the per-rank observation floor of the migration
// straggler detector: a rank is compared with the median once it has
// published two task latencies.
const migrateMinSamples = 2

// Plan describes one SCF run as a point on orthogonal axes: spin
// channels (Multiplicity), the Fock preset with the storage and density
// step it implies (Algorithm), and the supervisor's recovery policy
// (Recovery). The zero value is a serial RHF.
type Plan struct {
	// Multiplicity selects the spin case: 0 is restricted closed-shell;
	// >= 1 is unrestricted with that spin multiplicity (2S+1).
	Multiplicity int
	// Algorithm is the Fock preset. AlgSerial builds on the calling
	// goroutine with no world; Algorithms 1-3 and the resilient build run
	// on replicated matrices with an eigensolve density step; AlgPurified
	// and AlgPurifiedABFT run the tiled build on distributed (checksum-
	// redundant) tiles with an SP2 density step.
	Algorithm Algorithm
	Recovery  Policy

	Ranks   int // MPI ranks (initial, under ElasticEpoch); default 2
	Threads int // OpenMP threads per rank on replicated storage; default 1
	// Deadline bounds every blocking runtime operation (see
	// mpi.RunOptions.Deadline). 0 means no watchdog under None and 30s
	// under the recovering policies. Grace is the unwind window granted
	// to poisoned survivors past the deadline before stragglers are
	// abandoned and fenced; 0 takes the runtime default (500ms).
	Deadline time.Duration
	Grace    time.Duration
	// Fault injects failures into the FIRST attempt only — later attempts
	// run clean, as a failed or re-hosted node stays out of the job.
	Fault *mpi.FaultPlan
	// Tiled storage: tile edge (0 = distmat.DefaultBlockSize for the
	// grid) and the Fock build's per-rank staging bounds in tiles —
	// density read cache and Fock write combiner; 0 = twice the block
	// dimension each.
	BlockSize  int
	CacheTiles int
	AccTiles   int

	// ElasticEpoch: Membership governs the rank pool (nil constructs a
	// fresh pool of Ranks; supply one to share it with an autoscaler or to
	// announce joins from outside the run) and MaxRanks caps join
	// admission (default 4x the initial pool). MigrateK enables straggler
	// migration: a rank whose task-latency EWMA exceeds MigrateK x the
	// rank median (over ranks with at least migrateMinSamples
	// observations) is re-hosted at the next iteration boundary; 0
	// disables.
	Membership *mpi.Membership
	MaxRanks   int
	MigrateK   float64

	// SCF configures the loop. Its Telemetry also instruments the runtime
	// (MPI ops, Fock builds) and receives the recovery events on the
	// driver lane (pid telemetry.DriverPid).
	SCF Options

	// checkpoint seeds a checkpointing policy's first attempt with saved
	// bytes, as every later attempt is seeded by the run itself. No
	// caller restarts from a file, so only the package's tests set it (a
	// truncated seed must be diagnosed and ignored).
	checkpoint []byte
}

// ErrUnsupported is the sentinel (via errors.Is) of a Plan whose axes
// name a combination this code does not implement.
var ErrUnsupported = errors.New("scf: unsupported plan")

// UnsupportedError names the offending axis combination.
type UnsupportedError struct{ Reason string }

func (e *UnsupportedError) Error() string        { return "scf: unsupported plan: " + e.Reason }
func (e *UnsupportedError) Is(target error) bool { return target == ErrUnsupported }

// tiled reports whether the algorithm runs on distributed tiles.
func (a Algorithm) tiled() bool { return a == AlgPurified || a == AlgPurifiedABFT }

// check rejects axis combinations that are out of scope.
func (p Plan) check() error {
	switch p.Algorithm {
	case AlgSerial, AlgMPIOnly, AlgPrivateFock, AlgSharedFock, AlgResilientFock, AlgPurified, AlgPurifiedABFT:
	default:
		return fmt.Errorf("scf: unknown algorithm %q", p.Algorithm)
	}
	if p.Recovery < None || p.Recovery > ParitySalvage {
		return fmt.Errorf("scf: unknown recovery policy %d", p.Recovery)
	}
	switch {
	case p.Algorithm.tiled() && p.Multiplicity != 0:
		return &UnsupportedError{"unrestricted SCF needs the eigensolve density step; SP2 purification is closed-shell only"}
	case p.Algorithm == AlgSerial && p.Recovery != None:
		return &UnsupportedError{fmt.Sprintf("a serial run has no world for %s to recover", p.Recovery)}
	case p.Recovery == ParitySalvage && p.Algorithm != AlgPurifiedABFT:
		return &UnsupportedError{fmt.Sprintf("parity-salvage needs checksum tiles (%s), not %q", AlgPurifiedABFT, p.Algorithm)}
	case p.Recovery.checkpoints() && p.Algorithm.tiled():
		return &UnsupportedError{fmt.Sprintf("%s restarts from a replicated density, which tiled storage never forms", p.Recovery)}
	}
	return nil
}

// Report is how the supervisor got to its result. Fields a policy does
// not use stay zero.
type Report struct {
	Attempts        int              // world launches (1 = no restart; 0 = serial)
	RanksPerAttempt []int            // world size of each attempt
	Outcomes        []string         // per attempt: converged | join-rebalance | migrate-rebalance | shrink | canceled | error
	Restarts        int              // shrink transitions: checkpoint restarts, parity resumes
	FailedRanks     []int            // world ranks lost across all attempts
	InBuildRecovery bool             // a failure was absorbed by the Fock build without restarting
	Reports         []*mpi.RunReport // one per attempt

	// Checkpointing policies.
	CheckpointRestarts int // restarts warm-started from a checkpoint
	GuessRestarts      int // restarts from the standard guess
	CorruptCheckpoints int // checkpoints rejected as corrupt/truncated

	// ElasticEpoch.
	JoinsCommitted  int // ranks admitted across all grow events
	Migrations      int // ranks re-hosted off straggler-flagged nodes
	GrowRestarts    int
	MigrateRestarts int
	FinalRanks      int
	FinalEpoch      int64

	// ParitySalvage: tiles rebuilt from parity (not read from a surviving
	// owner) across all resumes, and the iteration the last one resumed at.
	ReconstructedTiles int64
	ResumedIter        int

	// Tallies of this run from the telemetry counters (zero when
	// SCF.Telemetry is unset): DLB leases speculatively re-issued (hedges
	// + steals + TTL expiries), leases hedged off flagged slow ranks,
	// duplicate results dropped by first-writer-wins dedup, and the
	// checksum audit's mismatches and repaired tiles.
	ReissuedTasks   int64
	HedgedTasks     int64
	DedupedTasks    int64
	AuditMismatches int64
	RepairedTiles   int64
}

// tallies maps the Report's counter-backed fields to their counters.
func (r *Report) tallies() map[string]*int64 {
	return map[string]*int64{
		"dlb.reissued":                &r.ReissuedTasks,
		"dlb.hedged":                  &r.HedgedTasks,
		"dlb.dedup_dropped":           &r.DedupedTasks,
		"distmat.abft.mismatches":     &r.AuditMismatches,
		"distmat.abft.repaired_tiles": &r.RepairedTiles,
	}
}

// ErrRebalance is the cancellation cause (via errors.Is) of an epoch
// stopped for a membership transition rather than by the caller.
var ErrRebalance = errors.New("scf: elastic rebalance requested")

// RebalanceSignal records why an epoch was stopped at an iteration
// boundary. It is the context-cancellation cause, so every rank's
// CanceledError unwraps to it.
type RebalanceSignal struct {
	Kind       string // "join" | "migrate"
	Stragglers []int  // flagged ranks (migrate)
	Iter       int    // iteration boundary the stop was requested at
}

func (r *RebalanceSignal) Error() string {
	if r.Kind == "migrate" {
		return fmt.Sprintf("scf: elastic rebalance (%s ranks %v) at iteration %d", r.Kind, r.Stragglers, r.Iter)
	}
	return fmt.Sprintf("scf: elastic rebalance (%s) at iteration %d", r.Kind, r.Iter)
}

// Is makes errors.Is(err, ErrRebalance) hold for every RebalanceSignal.
func (r *RebalanceSignal) Is(target error) bool { return target == ErrRebalance }

// Run performs the SCF calculation p describes over the engine's basis.
// src is the ERI source of every preset, required: production passes an
// integrals.PairCache, and tests may pass the direct oracle. A nil or
// background ctx disables cancellation; otherwise a canceled or expired
// ctx stops the loop — collectively, in a world — at the next iteration
// boundary with an error matching ErrCanceled, and stops the supervisor
// from spending restart budget.
//
// The Result is non-nil whenever the plan passed validation, and always
// carries the Recovery report — on failure it holds little else.
func Run(ctx context.Context, eng *integrals.Engine, sch *integrals.Schwarz,
	src integrals.QuartetSource, p Plan) (*Result, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	one, err := newOneElectron(eng)
	if err != nil {
		return &Result{Recovery: &Report{}}, err
	}
	if p.Algorithm == AlgSerial {
		opt := p.SCF
		if ctx.Done() != nil {
			opt.ctx = ctx
		}
		build := instrument(fock.SerialBuildN(eng, src, sch, fock.DefaultTau), opt.Telemetry, "serial", 0)
		res, err := runDense(eng, one, p.Multiplicity, build, opt)
		if res != nil {
			res.Recovery = &Report{}
		}
		return res, err
	}
	return supervise(ctx, eng, sch, src, one, p, p.Recovery.budget())
}

// attempt is one world launch's outputs.
type attempt struct {
	results []*Result
	errs    []error
	report  *mpi.RunReport
	runErr  error
}

// result returns the result of a rank that ran to completion: all ranks
// compute identical state, so one speaks for the world — except for the
// Fock counters, each rank's share of the work, which are summed over
// every rank that completed the attempt. With the resilient builder this
// can hold even when runErr records a dead peer.
func (a *attempt) result() *Result {
	var res *Result
	for _, r := range a.report.Completed {
		rr := a.results[r]
		if rr == nil || a.errs[r] != nil {
			continue
		}
		if res == nil {
			res = rr
			continue
		}
		res.TotalFockStats.Add(rr.TotalFockStats)
		for k := range min(len(res.History), len(rr.History)) {
			res.History[k].FockStat.Add(rr.History[k].FockStat)
		}
	}
	return res
}

// firstErr returns the first rank error. With no rank failure the ranks
// ran the same deterministic loop to the same end: an SCF error (bad
// options, odd electron count) or a collective cancel, neither of which
// retrying can help.
func (a *attempt) firstErr() error {
	for _, err := range a.errs {
		if err != nil {
			return err
		}
	}
	return fmt.Errorf("scf: run produced no result")
}

// supervise is the attempt loop: restore → launch → classify → shrink,
// until a world converges, the error is one no restart can help, or
// budget transitions have been spent. Every rank of every attempt reads
// the run's one-electron set one.
func supervise(ctx context.Context, eng *integrals.Engine, sch *integrals.Schwarz,
	src integrals.QuartetSource, one *oneElectron, p Plan, budget int) (*Result, error) {
	policy, tel := p.Recovery, p.SCF.Telemetry
	if p.Ranks <= 0 {
		p.Ranks = 2
	}
	if p.Deadline == 0 && policy != None {
		p.Deadline = defaultDeadline
	}
	var m *mpi.Membership
	if policy == ElasticEpoch {
		if m = p.Membership; m == nil {
			m = mpi.NewMembership(p.Ranks, tel)
		}
		if p.MaxRanks <= 0 {
			p.MaxRanks = 4 * m.Size()
		}
	}
	nocc := 0
	if p.Algorithm.tiled() {
		noccs, err := occupations(eng, 0)
		if err != nil {
			return nil, err
		}
		nocc = noccs[0]
	}

	rep := &Report{}
	fail := func(err error) (*Result, error) { return &Result{Recovery: rep}, err }
	record := func(outcome string) { rep.Outcomes = append(rep.Outcomes, outcome) }
	// The registry outlives the run (hfserve shares one across jobs), so
	// the tallies are deltas over this run, not absolute counter values.
	// They are read without registering: a run that never counts a tally
	// leaves it out of its metrics.
	for name, field := range rep.tallies() {
		*field = -tel.CounterValue(name)
	}
	defer func() {
		for name, field := range rep.tallies() {
			*field += tel.CounterValue(name)
		}
	}()
	// The latest checkpoint bytes: rank 0's OnIteration hook stores them
	// from inside the run, the supervisor loads them after.
	var store atomic.Pointer[[]byte]
	store.Store(&p.checkpoint)
	molName, basisName := eng.Basis.Mol.Name, eng.Basis.Name
	ranks := p.Ranks // moves under ElasticEpoch only
	var resume *tiledResume

	for {
		// A canceled caller gets no further attempts: the budget is for
		// rank failures, not for outliving the job.
		if ctx.Err() != nil {
			return fail(&CanceledError{Cause: context.Cause(ctx)})
		}
		if m != nil {
			ranks = m.Size()
		}
		rep.Attempts++
		rep.RanksPerAttempt = append(rep.RanksPerAttempt, ranks)

		opt := p.SCF
		if policy.checkpoints() {
			opt.warm = restoreCheckpoint(*store.Load(), rep, tel)
		}
		var fault *mpi.FaultPlan
		if rep.Attempts == 1 {
			fault = p.Fault
		}

		// The per-epoch stop gate: rank 0 cancels with a RebalanceSignal
		// cause, and every rank agrees collectively at the next iteration
		// boundary — nobody is left blocked in a collective.
		runCtx, stopEpoch := ctx, context.CancelCauseFunc(func(error) {})
		if policy == ElasticEpoch {
			runCtx, stopEpoch = context.WithCancelCause(ctx)
		}
		var signal atomic.Pointer[RebalanceSignal]
		budgetLeft := rep.transitions() < budget
		var snaps *salvageStore
		if policy == ParitySalvage {
			snaps = &salvageStore{byRank: map[int]tiledSnapshot{}}
		}

		at := &attempt{results: make([]*Result, ranks), errs: make([]error, ranks)}
		at.report, at.runErr = mpi.RunWithOptions(ranks,
			mpi.RunOptions{Deadline: p.Deadline, Grace: p.Grace, Fault: fault, Telemetry: tel},
			func(c *mpi.Comm) {
				rank := c.Rank()
				o := opt
				o.rank = rank
				if runCtx.Done() != nil {
					o.ctx = runCtx
					o.cancelAgree = CollectiveCancel(c)
				}
				if rank != 0 {
					o.OnIteration = nil
				}
				if p.Algorithm.tiled() {
					at.results[rank], at.errs[rank] = runTiled(c, eng, sch, fock.Config{Quartets: src},
						one, nocc, p, o, snaps, resume)
					return
				}
				dx := ddi.New(c)
				if user := o.OnIteration; rank == 0 && policy.checkpoints() {
					o.OnIteration = func(iter int, r *Result) {
						// All ranks hold identical state, so one writer suffices.
						// The write passes through the SiteCheckpoint injection
						// hook, so a scheduled corruption lands on the serialized
						// bytes — exactly where a disk or DMA bit-flip would —
						// and must be caught by the CRC at the next restore. The
						// elastic handshake below hands these exact bytes to
						// joining ranks.
						if data, err := EncodeCheckpoint(molName, basisName, r); err == nil {
							c.InjectSDCBytes(mpi.SiteCheckpoint, data)
							store.Store(&data)
						}
						if user != nil {
							user(iter, r)
						}
						if policy != ElasticEpoch || signal.Load() != nil || !budgetLeft {
							return
						}
						if sig := rebalanceDue(m, dx, p, ranks, iter); sig != nil {
							signal.Store(sig)
							stopEpoch(sig)
						}
					}
				}
				build := parallelChannels(p.Algorithm, dx, eng, sch, fock.Config{Threads: p.Threads, Quartets: src})
				at.results[rank], at.errs[rank] = runDense(eng, one, p.Multiplicity, build, o)
			})
		stopEpoch(nil)
		rep.Reports = append(rep.Reports, at.report)
		dead := at.report.DeadRanks()
		rep.FailedRanks = append(rep.FailedRanks, dead...)
		if resume != nil {
			// The attempt that just ran consumed the salvagers; bank its
			// reconstruction tally whether it succeeded or not.
			rep.ReconstructedTiles += resume.reconstructed()
			tel.Counter("distmat.abft.reconstructed_tiles").Add(resume.reconstructed())
		}

		if res := at.result(); res != nil {
			record("converged")
			rep.InBuildRecovery = at.runErr != nil
			rep.FinalRanks = ranks
			if m != nil {
				rep.FinalEpoch = m.Epoch()
			}
			res.Recovery = rep
			return res, nil
		}
		if sig := signal.Load(); sig != nil && at.runErr == nil && errors.Is(at.firstErr(), ErrRebalance) {
			// Every rank returned a CanceledError whose cause is the
			// signal. Apply the transition and restart. The joiners are
			// handed the checkpoint rank 0 wrote before it signalled.
			record(sig.Kind + "-rebalance")
			if sig.Kind == "join" {
				added := m.CommitJoins(*store.Load())
				rep.JoinsCommitted += added
				rep.GrowRestarts++
				tel.Counter("elastic.grow_restarts").Add(1)
				tel.Instant("recovery.restart", "grow-restart", telemetry.DriverPid, 0,
					map[string]any{"epoch": m.Epoch(), "ranks": m.Size(), "joined": added})
			} else {
				m.RecordMigration(sig.Stragglers)
				rep.Migrations += len(sig.Stragglers)
				rep.MigrateRestarts++
				tel.Counter("elastic.migrate_restarts").Add(1)
				tel.Instant("recovery.restart", "migrate-restart", telemetry.DriverPid, 0,
					map[string]any{"epoch": m.Epoch(), "stragglers": fmt.Sprint(sig.Stragglers)})
			}
			continue
		}
		if at.runErr == nil {
			err := at.firstErr()
			if errors.Is(err, ErrCanceled) {
				record("canceled")
			} else {
				record("error")
			}
			return fail(err)
		}
		if policy == None {
			record("error")
			return fail(at.runErr)
		}

		// Rank failure: shrink to the survivors.
		lost := len(dead)
		if lost == 0 {
			// Pure-timeout failure: nobody is provably dead, but the run
			// could not finish. Drop one rank (the wedged one is fenced out
			// by its own deadline next time) and retry; under ParitySalvage
			// the empty dead set degenerates to a pure re-shard.
			lost = 1
		}
		if m != nil && m.Rebalancing() {
			// A handshake that lost the race to a rank death is aborted — the
			// candidates may announce again.
			m.AbortRebalance()
		}
		var err error
		switch {
		case ranks-lost < 1:
			err = fmt.Errorf("scf: no ranks left to restart with: %w", at.runErr)
		case rep.transitions() >= budget:
			err = fmt.Errorf("scf: %s budget (%d) exhausted: %w", policy, budget, at.runErr)
		case policy == ParitySalvage:
			if resume, err = newTiledResume(snaps, dead); err != nil {
				err = fmt.Errorf("scf: %v: %w", err, at.runErr)
			} else {
				rep.ResumedIter = resume.snap.iter
			}
		}
		if err != nil {
			record("error")
			return fail(err)
		}
		record("shrink")
		ranks -= lost
		if m != nil {
			m.Shrink(lost)
			tel.Counter("elastic.shrink_restarts").Add(1)
		}
		rep.Restarts++
		tel.Counter("recovery.restarts").Add(1)
		tel.Instant("recovery.restart", "shrink-restart", telemetry.DriverPid, 0,
			map[string]any{"attempt": rep.Attempts, "ranks": ranks, "lost": lost, "policy": policy.String()})
	}
}

// transitions is the budget spent so far.
func (r *Report) transitions() int { return r.Restarts + r.GrowRestarts + r.MigrateRestarts }

// restoreCheckpoint loads the latest checkpoint for the attempt about
// to start and returns its restart densities, or nil to start from the
// guess: no checkpoint yet, or a corrupted/truncated one, which is
// diagnosed and counted.
func restoreCheckpoint(buf []byte, rep *Report, tel *telemetry.Session) []*linalg.Matrix {
	var cp *Checkpoint
	var err error
	if buf != nil {
		cp, err = LoadCheckpoint(bytes.NewReader(buf))
	}
	restart := rep.Attempts > 1
	switch {
	case err != nil:
		rep.CorruptCheckpoints++
		tel.Counter("recovery.corrupt_checkpoints").Add(1)
		tel.Counter("sdc.detected").Add(1)
		tel.Counter("sdc.detected.checkpoint").Add(1)
		tel.Instant("recovery.restore", "checkpoint-corrupt", telemetry.DriverPid, 0,
			map[string]any{"attempt": rep.Attempts, "cause": err.Error()})
	case cp != nil && restart:
		tel.Counter("recovery.checkpoint_restores").Add(1)
		tel.Instant("recovery.restore", "checkpoint-restore", telemetry.DriverPid, 0,
			map[string]any{"attempt": rep.Attempts, "iter": cp.Iterations})
	}
	if cp == nil {
		if restart {
			rep.GuessRestarts++
		}
		return nil
	}
	if restart {
		rep.CheckpointRestarts++
	}
	return cp.Densities()
}

// rebalanceDue is rank 0's per-iteration elastic check: a grow when
// announced candidates fit under the admission cap (this begins the
// checkpoint handshake), else a migration when the straggler detector —
// reading the window the builders published this epoch's latencies
// into — flags a rank.
func rebalanceDue(m *mpi.Membership, dx *ddi.Context, p Plan, ranks, iter int) *RebalanceSignal {
	if n := m.PendingRanks(); n > 0 && ranks+n <= p.MaxRanks && m.BeginRebalance() {
		return &RebalanceSignal{Kind: "join", Iter: iter}
	}
	if p.MigrateK > 0 {
		if slow := dx.Stragglers(p.MigrateK, migrateMinSamples); len(slow) > 0 {
			return &RebalanceSignal{Kind: "migrate", Stragglers: slow, Iter: iter}
		}
	}
	return nil
}

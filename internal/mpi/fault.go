package mpi

// Fault tolerance: the runtime-level half of the PR's resilience story.
//
// At the paper's headline scale (3,000 KNL nodes / 192,000 cores, Figure
// 7) node failures during a run are the norm, and GAMESS' only answer is
// a full restart from the PUNCH file. This file makes failure a
// first-class, *testable* runtime event:
//
//   - FaultPlan injects rank deaths and delays at well-defined runtime
//     events (barrier entry, send, recv, DLB fetch-add), modeling
//     fail-stop node loss. Real MPI failure detection also happens at
//     communication events, so this is the natural fault model for an
//     in-process runtime.
//   - Every blocking primitive (mailbox take, Barrier, and therefore all
//     collectives) observes the world's poison state and an optional
//     per-operation deadline, converting silent hangs into typed
//     RankFailure panics that unwind the surviving ranks.
//   - RunWithOptions returns a structured RunReport: which rank failed,
//     where, who unwound, who completed, and which goroutines had to be
//     abandoned (and fenced off the shared windows).
//
// Error taxonomy: a run error always unwraps to ErrRankFailed (a rank
// died: injected kill or real panic) or ErrTimeout (a blocking operation
// exceeded the deadline, i.e. a peer was stuck rather than dead).

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Sentinel errors for errors.Is dispatch on a failed run.
var (
	// ErrRankFailed reports that at least one rank died (injected kill or
	// panic); surviving ranks were unwound from their blocking operations.
	ErrRankFailed = errors.New("mpi: rank failed")
	// ErrTimeout reports that a blocking operation exceeded the configured
	// deadline — a peer was stuck (not provably dead) and the run gave up
	// waiting instead of hanging forever.
	ErrTimeout = errors.New("mpi: deadline exceeded")
)

// FailureKind classifies how a rank left the computation.
type FailureKind int

// Failure kinds.
const (
	KindPanic     FailureKind = iota // the rank's code panicked
	KindKilled                       // an injected FaultPlan kill fired
	KindTimeout                      // the rank gave up after Deadline blocked
	KindCorrupted                    // payload checksum verification failed beyond the retry budget
)

func (k FailureKind) String() string {
	switch k {
	case KindKilled:
		return "killed"
	case KindTimeout:
		return "timeout"
	case KindCorrupted:
		return "corrupted"
	default:
		return "panic"
	}
}

// RankFailure is the typed error describing one rank's failure. It
// unwraps to ErrRankFailed (killed/panic) or ErrTimeout.
type RankFailure struct {
	Rank    int
	Site    string // where the failure was observed ("barrier", "dlb #3", ...)
	Kind    FailureKind
	Cause   any           // the panic value for KindPanic
	Elapsed time.Duration // blocked time for KindTimeout
}

// Error implements error.
func (f *RankFailure) Error() string {
	switch f.Kind {
	case KindTimeout:
		return fmt.Sprintf("mpi: rank %d timed out after %v blocked at %s", f.Rank, f.Elapsed.Round(time.Millisecond), f.Site)
	case KindKilled:
		return fmt.Sprintf("mpi: rank %d killed at %s (injected fault)", f.Rank, f.Site)
	case KindCorrupted:
		return fmt.Sprintf("mpi: rank %d gave up at %s: %v", f.Rank, f.Site, f.Cause)
	default:
		return fmt.Sprintf("mpi: rank %d panicked at %s: %v", f.Rank, f.Site, f.Cause)
	}
}

// Unwrap lets errors.Is(err, ErrRankFailed) / errors.Is(err, ErrTimeout)
// dispatch on the failure class.
func (f *RankFailure) Unwrap() error {
	if f.Kind == KindTimeout {
		return ErrTimeout
	}
	return ErrRankFailed
}

// --- fault injection ---

// FaultSite names a runtime event class at which faults can be injected.
type FaultSite string

// Injectable runtime events. SiteDLB is the one-sided fetch-and-add under
// ddi.DLBNext — the paper's dynamic load balancer draw. SiteFock is one
// Fock-build task (corruption there models a bad FMA or memory error
// inside the quartet loops) and SiteCheckpoint is one checkpoint write;
// both are corruption-only sites counted by the layers that own them
// (internal/fock task loops, the SCF recovery driver). SitePurify is one
// SP2 purification sweep on an ABFT-protected distributed matrix: a kill
// there dies mid-purification (tiles in flight), and a corruption lands
// in resident tile memory — the in-memory bit-flip the checksum audit
// exists to catch.
const (
	SiteBarrier    FaultSite = "barrier"
	SiteSend       FaultSite = "send"
	SiteRecv       FaultSite = "recv"
	SiteDLB        FaultSite = "dlb"
	SiteFock       FaultSite = "fock"
	SiteCheckpoint FaultSite = "checkpoint"
	SitePurify     FaultSite = "purify"
)

func siteIndex(s FaultSite) int {
	switch s {
	case SiteBarrier:
		return 0
	case SiteSend:
		return 1
	case SiteRecv:
		return 2
	case SiteFock:
		return 4
	case SiteCheckpoint:
		return 5
	case SitePurify:
		return 6
	default:
		return 3
	}
}

// Kill schedules rank Rank to die on its After-th event (1-based) at
// Site. Death happens before the event takes effect, so a rank killed at
// a DLB draw never consumes the drawn index.
type Kill struct {
	Rank  int
	Site  FaultSite
	After int
}

// Delay stalls rank Rank for Sleep on its After-th event at Site —
// modeling a slow or wedged (but not dead) peer, the case the Deadline
// machinery exists for.
type Delay struct {
	Rank  int
	Site  FaultSite
	After int
	Sleep time.Duration
}

// CorruptionKind selects how an injected silent-data-corruption event
// mutates its target.
type CorruptionKind int

// Corruption kinds.
const (
	// CorruptBitFlip flips a single bit of one float64 (or one byte of a
	// serialized checkpoint) — the canonical single-event-upset model.
	CorruptBitFlip CorruptionKind = iota
	// CorruptNaN overwrites one float64 with a quiet NaN — the shape a
	// faulty functional unit produces inside a Fock task.
	CorruptNaN
)

func (k CorruptionKind) String() string {
	if k == CorruptNaN {
		return "nan-poison"
	}
	return "bit-flip"
}

// Corrupt schedules a silent-data-corruption event: on rank Rank's
// After-th event (1-based) at Site, the payload in flight is mutated per
// Kind. Unlike Kill, nothing crashes — the corruption must be *detected*
// by the integrity layer (checksum verification at receives, matrix
// validators in the SCF, the checkpoint CRC) or it silently poisons the
// run. Index/Bit select the flipped element and bit (clamped to range).
// Repeat > 0 corrupts that many retransmissions too, driving the bounded
// retry to exhaustion so escalation to the RankFailure path is testable.
type Corrupt struct {
	Rank   int
	Site   FaultSite
	After  int
	Kind   CorruptionKind
	Index  int // element (float64/byte) to corrupt within the payload
	Bit    int // bit to flip for CorruptBitFlip
	Repeat int // additional retransmissions to re-corrupt (escalation testing)
}

// --- performance-fault (chaos) schedules ---
//
// Kill/Delay/Corrupt model crash and data faults; the types below model
// PERFORMANCE faults: the run still produces a result, but the network
// or a core misbehaves in ways that inflate wall time (stragglers) or
// stress delivery ordering (duplication, reordering, partitions). They
// are deterministic schedules like the rest of the plan, so chaos runs
// are reproducible.

// Slowdown models a sustained straggler: rank Rank runs slow for the
// whole run instead of dying or stalling once (contrast Delay).
type Slowdown struct {
	Rank int
	// Factor stretches task-site work: a unit of work that took t is
	// stalled a further (Factor-1)·t by Comm.TaskStall, so the rank's
	// observed task latency is Factor× its true latency. Values <= 1
	// apply no task stall.
	Factor float64
	// OpDelay adds a fixed latency to every matching communication event
	// — a degraded NIC rather than a slow core.
	OpDelay time.Duration
	// Sites restricts where the slowdown applies; empty means all sites.
	Sites []FaultSite
}

func (s *Slowdown) appliesTo(site FaultSite) bool {
	if len(s.Sites) == 0 {
		return true
	}
	for _, x := range s.Sites {
		if x == site {
			return true
		}
	}
	return false
}

// Duplicate schedules rank Rank's After-th send (1-based) to be
// delivered Copies extra times (0 means 1 extra). The duplicates carry
// the same transport sequence number as the original, so the receiver's
// dedup must drop all but one.
type Duplicate struct {
	Rank   int
	After  int
	Copies int
}

// Reorder holds rank Rank's After-th send (1-based) back until Behind
// later sends (0 means 1) from the same rank have been delivered, making
// the held message arrive out of order. A safety timer flushes the held
// message even when no later send comes, so a quiescing sender cannot
// stall the run.
type Reorder struct {
	Rank   int
	After  int
	Behind int
}

// Partition opens a transient network partition: any message crossing
// the cut between Ranks and the remaining ranks, sent inside the window
// [Start, Start+Duration) measured from run start, is held and delivered
// when the partition heals. The partition must heal before the run
// deadline or blocked receivers time out — which is exactly the
// distinction the deadline machinery exists to make.
type Partition struct {
	Ranks    []int // one side of the cut
	Start    time.Duration
	Duration time.Duration
}

// crosses reports whether a src→dst message crosses the cut.
func (p *Partition) crosses(src, dst int) bool {
	in := func(r int) bool {
		for _, x := range p.Ranks {
			if x == r {
				return true
			}
		}
		return false
	}
	return in(src) != in(dst)
}

// FaultPlan is an injection schedule for one run. The zero value injects
// nothing.
type FaultPlan struct {
	Kills    []Kill
	Delays   []Delay
	Corrupts []Corrupt

	// Performance faults (see the chaos section above).
	Slowdowns  []Slowdown
	Duplicates []Duplicate
	Reorders   []Reorder
	Partitions []Partition
}

// messageChaos reports whether the plan reshapes message delivery
// (duplication, reordering, partitions) and therefore requires the
// sequence-numbered transport that restores per-channel FIFO order.
func (p *FaultPlan) messageChaos() bool {
	return len(p.Duplicates)+len(p.Reorders)+len(p.Partitions) > 0
}

// numSites is the number of FaultSites (siteIndex's range).
const numSites = 7

type siteCounters [numSites]atomic.Int64

// injectedNames are the per-site sdc.injected counters, by siteIndex.
var injectedNames = [numSites]string{"sdc.injected.barrier", "sdc.injected.send",
	"sdc.injected.recv", "sdc.injected.dlb", "sdc.injected.fock", "sdc.injected.checkpoint", "sdc.injected.purify"}

// faultState tracks per-rank, per-site event counts against the plan.
type faultState struct {
	plan       FaultPlan
	counts     []siteCounters
	slowEvents *telemetry.Counter // chaos.slowdown.events (nil without telemetry)
}

// hit records one event, fires any matching delay/kill/slowdown, and
// returns the matching corruption (nil for none) for the caller to apply
// to the payload in flight.
func (fs *faultState) hit(rank int, site FaultSite) *Corrupt {
	_, cr := fs.hitN(rank, site)
	return cr
}

// hitN is hit exposing the event ordinal, which the send path needs to
// match Duplicate/Reorder schedules and release held reorders.
func (fs *faultState) hitN(rank int, site FaultSite) (int64, *Corrupt) {
	n := fs.counts[rank][siteIndex(site)].Add(1)
	for _, d := range fs.plan.Delays {
		if d.Rank == rank && d.Site == site && int64(d.After) == n {
			time.Sleep(d.Sleep)
		}
	}
	for i := range fs.plan.Slowdowns {
		s := &fs.plan.Slowdowns[i]
		if s.Rank == rank && s.OpDelay > 0 && s.appliesTo(site) {
			fs.slowEvents.Add(1)
			time.Sleep(s.OpDelay)
		}
	}
	for _, k := range fs.plan.Kills {
		if k.Rank == rank && k.Site == site && int64(k.After) == n {
			panic(injectedKill{rank: rank, site: site, n: int(n)})
		}
	}
	for i := range fs.plan.Corrupts {
		c := &fs.plan.Corrupts[i]
		if c.Rank == rank && c.Site == site && int64(c.After) == n {
			return n, c
		}
	}
	return n, nil
}

// sendChaos returns the duplicate/reorder entries scheduled for rank's
// n-th send event (already counted by hitN).
func (fs *faultState) sendChaos(rank int, n int64) (dup *Duplicate, ro *Reorder) {
	for i := range fs.plan.Duplicates {
		d := &fs.plan.Duplicates[i]
		if d.Rank == rank && int64(d.After) == n {
			dup = d
		}
	}
	for i := range fs.plan.Reorders {
		r := &fs.plan.Reorders[i]
		if r.Rank == rank && int64(r.After) == n {
			ro = r
		}
	}
	return dup, ro
}

// slowdownFor returns the sustained task-stall factor for rank at site
// (0 when none is scheduled).
func (fs *faultState) slowdownFor(rank int, site FaultSite) float64 {
	for i := range fs.plan.Slowdowns {
		s := &fs.plan.Slowdowns[i]
		if s.Rank == rank && s.Factor > 1 && s.appliesTo(site) {
			return s.Factor
		}
	}
	return 0
}

// partitionDelay returns how long a src→dst message sent now must be
// held for every partition window it falls into (0 = deliver now).
func (fs *faultState) partitionDelay(src, dst int, elapsed time.Duration) time.Duration {
	var hold time.Duration
	for i := range fs.plan.Partitions {
		p := &fs.plan.Partitions[i]
		if elapsed >= p.Start && elapsed < p.Start+p.Duration && p.crosses(src, dst) {
			if d := p.Start + p.Duration - elapsed; d > hold {
				hold = d
			}
		}
	}
	return hold
}

// Panic payload types used to classify unwinding in the rank runner.
type injectedKill struct {
	rank int
	site FaultSite
	n    int
}

type failurePanic struct{ f *RankFailure }

type timeoutPanic struct {
	rank    int
	site    string
	elapsed time.Duration
}

// corruptionPanic unwinds a receiver whose payload failed checksum
// verification beyond the retry budget — persistent corruption that
// retransmission cannot cure, escalated to the RankFailure path so the
// shrink-restart recovery above takes over.
type corruptionPanic struct {
	rank int
	site string
	err  error
}

// --- run options and report ---

// RunOptions configures a fault-aware run.
type RunOptions struct {
	// Deadline bounds the time any single blocking operation (Recv,
	// Barrier, collectives, resilient-build waits) may stay blocked; 0
	// waits forever (classic MPI semantics). When a wait exceeds the
	// deadline the waiting rank unwinds with a KindTimeout RankFailure.
	Deadline time.Duration
	// Fault optionally injects rank deaths, delays, and silent data
	// corruption.
	Fault *FaultPlan
	// Grace is how long, past the deadline, poisoned survivors get to
	// unwind before the run abandons (and fences) whatever is left.
	// 0 means the default 500ms; it only matters when Deadline > 0.
	Grace time.Duration
	// Unverified disables checksum verification of message payloads —
	// the pre-integrity transport, kept for measuring checksum overhead
	// (bench_test.go) and for experiments that want corruption to land.
	Unverified bool
	// Telemetry, when set, receives per-op spans, wait-time histograms,
	// and barrier-arrival skew from every communicator of the run.
	Telemetry *telemetry.Session
}

// rank outcome states recorded on the top-level world.
const (
	outcomeRunning int8 = iota
	outcomeCompleted
	outcomeUnwound
	outcomeFailed
	outcomeAbandoned
)

// RunReport describes how a run ended, rank by rank.
type RunReport struct {
	Size      int
	Failures  []RankFailure   // primary failures (killed / panicked / timed out), in detection order
	Unwound   []int           // survivors that observed the poison and unwound cleanly
	Completed []int           // ranks that returned normally
	Abandoned []int           // goroutines still blocked/stuck at grace expiry; leaked but fenced from windows
	RankWall  []time.Duration // per-rank goroutine wall time (run duration for abandoned ranks)
	Err       error           // nil on a clean run
}

// RecoveryEvents tallies a run's failure and recovery events, the counts
// the resilience experiment reports next to per-rank wall times.
type RecoveryEvents struct {
	Kills     int // injected fail-stop deaths
	Panics    int // ranks lost to panics in user code
	Timeouts  int // ranks that gave up after Deadline blocked
	Corrupted int // ranks that gave up on persistently corrupt payloads
	Unwound   int // survivors unwound cleanly by the poison
	Abandoned int // goroutines fenced off after the grace period
}

// RecoveryCounts reduces the report to event tallies.
func (r *RunReport) RecoveryCounts() RecoveryEvents {
	ev := RecoveryEvents{Unwound: len(r.Unwound), Abandoned: len(r.Abandoned)}
	for _, f := range r.Failures {
		switch f.Kind {
		case KindKilled:
			ev.Kills++
		case KindTimeout:
			ev.Timeouts++
		case KindCorrupted:
			ev.Corrupted++
		default:
			ev.Panics++
		}
	}
	return ev
}

// OutcomeOf names how the given rank ended: "completed", "unwound",
// "abandoned", or the failure kind ("killed", "panic", "timeout").
func (r *RunReport) OutcomeOf(rank int) string {
	for _, f := range r.Failures {
		if f.Rank == rank {
			return f.Kind.String()
		}
	}
	for _, x := range r.Completed {
		if x == rank {
			return "completed"
		}
	}
	for _, x := range r.Unwound {
		if x == rank {
			return "unwound"
		}
	}
	for _, x := range r.Abandoned {
		if x == rank {
			return "abandoned"
		}
	}
	return "unknown"
}

// DeadRanks returns the ranks that are genuinely gone — killed, panicked,
// or abandoned (fenced). Timed-out waiters are NOT dead: they unwound
// healthy after giving up on a stuck peer.
func (r *RunReport) DeadRanks() []int {
	set := map[int]bool{}
	for _, f := range r.Failures {
		if f.Kind != KindTimeout {
			set[f.Rank] = true
		}
	}
	for _, a := range r.Abandoned {
		set[a] = true
	}
	out := make([]int, 0, len(set))
	for rk := range set {
		out = append(out, rk)
	}
	sort.Ints(out)
	return out
}

// Run executes f on size ranks concurrently and returns when all ranks
// finish. A panic on any rank is recovered, propagated as a typed
// RankFailure error, and poisons the world so blocked peers unwind
// instead of deadlocking.
func Run(size int, f func(c *Comm)) error {
	_, err := RunWithOptions(size, RunOptions{}, f)
	return err
}

// RunWithOptions executes f on size ranks with fault injection and
// deadline-bounded blocking, returning a structured report alongside the
// error (report.Err == err).
func RunWithOptions(size int, opt RunOptions, f func(c *Comm)) (*RunReport, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: size must be positive, got %d", size)
	}
	w := newWorld(size)
	w.deadline = opt.Deadline
	w.grace = opt.Grace
	if w.grace <= 0 {
		w.grace = 500 * time.Millisecond
	}
	w.noVerify = opt.Unverified
	w.telemetry = opt.Telemetry
	if opt.Fault != nil {
		w.fault = &faultState{plan: *opt.Fault, counts: make([]siteCounters, size)}
		if opt.Fault.messageChaos() {
			w.chaosOn = true
			w.sendSeqs = make(map[chanKey]int64)
		}
	}
	w.resolveMetrics()
	w.outcomes = make([]int8, size)
	w.rankWall = make([]time.Duration, size)
	w.runStart = time.Now()
	if w.deadline > 0 {
		w.startWatchdog()
	}

	var wg sync.WaitGroup
	wg.Add(size)
	for r := 0; r < size; r++ {
		go func(rank int) {
			t0 := time.Now()
			defer wg.Done()
			defer func() { w.finishRank(rank, time.Since(t0), recover()) }()
			f(&Comm{rank: rank, size: size, world: w})
		}(r)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	if w.deadline <= 0 {
		<-done
	} else {
		w.waitWithGrace(done)
	}
	if w.watchStop != nil {
		close(w.watchStop)
	}
	report := w.buildReport()
	return report, report.Err
}

// waitWithGrace waits for all ranks; once the world is poisoned it gives
// survivors one deadline (plus slack) to unwind, then abandons and fences
// whatever is left so the caller regains control.
func (w *World) waitWithGrace(done chan struct{}) {
	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
	var graceTimer <-chan time.Time
	for {
		select {
		case <-done:
			return
		case <-ticker.C:
			if graceTimer == nil && w.poisonF.Load() != nil {
				graceTimer = time.After(w.deadline + w.grace)
			}
		case <-graceTimer:
			w.abandonStragglers()
			return
		}
	}
}

// abandonStragglers marks still-running ranks abandoned and fences them
// from the shared windows, so a wedged goroutine that later wakes cannot
// corrupt state the survivors (or a restarted attempt) rely on.
func (w *World) abandonStragglers() {
	w.winMu.Lock()
	w.failMu.Lock()
	for r := range w.outcomes {
		if w.outcomes[r] == outcomeRunning {
			w.outcomes[r] = outcomeAbandoned
			w.fenced[r].Store(true)
		}
	}
	w.freeHeld()
	w.failMu.Unlock()
	w.winMu.Unlock()
}

// finishRank classifies how a rank's goroutine ended and records it,
// along with the goroutine's wall time.
func (w *World) finishRank(rank int, wall time.Duration, p any) {
	w.failMu.Lock()
	w.rankWall[rank] = wall
	w.failMu.Unlock()
	switch v := p.(type) {
	case nil:
		w.setOutcome(rank, outcomeCompleted)
	case failurePanic:
		w.setOutcome(rank, outcomeUnwound)
	case timeoutPanic:
		w.recordFailure(RankFailure{Rank: v.rank, Site: v.site, Kind: KindTimeout, Elapsed: v.elapsed})
	case corruptionPanic:
		w.recordFailure(RankFailure{Rank: v.rank, Site: v.site, Kind: KindCorrupted, Cause: v.err})
	case injectedKill:
		w.recordFailure(RankFailure{Rank: v.rank, Site: fmt.Sprintf("%s #%d", v.site, v.n), Kind: KindKilled})
	default:
		w.recordFailure(RankFailure{Rank: rank, Site: "user code", Kind: KindPanic, Cause: v})
	}
}

func (w *World) setOutcome(rank int, o int8) {
	w.failMu.Lock()
	if w.outcomes[rank] == outcomeRunning {
		w.outcomes[rank] = o
	}
	w.failMu.Unlock()
}

// recordFailure registers a primary failure and poisons the world so
// every blocked peer unwinds.
func (w *World) recordFailure(f RankFailure) {
	w.winMu.Lock()
	w.failMu.Lock()
	w.failures = append(w.failures, f)
	if w.outcomes[f.Rank] == outcomeRunning {
		w.outcomes[f.Rank] = outcomeFailed
	}
	w.freeHeld()
	w.failMu.Unlock()
	w.winMu.Unlock()
	fc := f
	w.poisonWorld(&fc)
}

// poisonWorld marks the world failed and wakes all blocked waiters:
// barrier waiters AND mailbox receivers (the seed's poison only woke the
// barrier — a receiver blocked on a dead peer hung forever).
func (w *World) poisonWorld(f *RankFailure) {
	w.poisonF.CompareAndSwap(nil, f)
	w.barrier.poison()
	for _, b := range w.boxes {
		// Under the mailbox lock: a receiver that has checked poisonF and
		// not yet parked in cond.Wait would otherwise miss this wakeup and,
		// with no deadline to re-wake it, block forever.
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

// buildReport snapshots per-rank outcomes into a RunReport.
func (w *World) buildReport() *RunReport {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	rep := &RunReport{Size: w.size}
	rep.Failures = append(rep.Failures, w.failures...)
	rep.RankWall = append(rep.RankWall, w.rankWall...)
	for r, o := range w.outcomes {
		// Abandoned (or still-running) goroutines never reported a wall
		// time; charge them the full run duration.
		if rep.RankWall[r] == 0 && o != outcomeCompleted {
			rep.RankWall[r] = time.Since(w.runStart)
		}
	}
	for r, o := range w.outcomes {
		switch o {
		case outcomeCompleted:
			rep.Completed = append(rep.Completed, r)
		case outcomeUnwound:
			rep.Unwound = append(rep.Unwound, r)
		case outcomeAbandoned:
			rep.Abandoned = append(rep.Abandoned, r)
		}
	}
	if len(rep.Failures) > 0 {
		f := rep.Failures[0]
		rep.Err = &f
	}
	return rep
}

// --- watchdog: periodic wakeups so deadline checks can run ---

func (w *World) startWatchdog() {
	w.watchStop = make(chan struct{})
	// Blocked waiters re-check poison and deadline state every
	// deadline/8, clamped to [1ms, 20ms].
	tick := min(max(w.deadline/8, time.Millisecond), 20*time.Millisecond)
	go func() {
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-w.watchStop:
				return
			case <-t.C:
				w.broadcastAll()
			}
		}
	}()
}

// broadcastAll wakes every blocked waiter so it can re-check poison and
// deadline state.
func (w *World) broadcastAll() {
	for _, b := range w.boxes {
		b.cond.Broadcast()
	}
	w.barrier.cond.Broadcast()
}

// --- per-comm fault hooks and queries ---

// faultHook records one runtime event for fault injection and returns
// the corruption scheduled for it, if any, so the caller can apply it to
// the payload in flight.
func (c *Comm) faultHook(site FaultSite) *Corrupt {
	if c.world.fault == nil {
		return nil
	}
	return c.world.fault.hit(c.rank, site)
}

// TaskStall applies any sustained chaos Slowdown scheduled for this rank
// at the given site to one unit of work that took elapsed: the caller is
// stalled a further (Factor-1)·elapsed, so its observed task latency
// becomes Factor× the true latency — a genuine straggler rather than a
// one-shot hiccup. Task loops (Fock builders, DLB workloads) call it
// after each task. Returns the stall applied (0 when no slowdown is
// scheduled, which is the fast path for clean runs).
func (c *Comm) TaskStall(site FaultSite, elapsed time.Duration) time.Duration {
	w := c.world
	if w.fault == nil || elapsed <= 0 {
		return 0
	}
	f := w.fault.slowdownFor(c.rank, site)
	if f <= 1 {
		return 0
	}
	stall := time.Duration(float64(elapsed) * (f - 1))
	w.met.slowEvents.Add(1)
	w.met.slowNs.Add(stall.Nanoseconds())
	time.Sleep(stall)
	return stall
}

// checkFenced bars an abandoned rank from mutating shared windows. The
// panic unwinds it like any other failure observation.
func (c *Comm) checkFenced() {
	w := c.world
	if w.fenced[c.rank].Load() {
		f := w.poisonF.Load()
		if f == nil {
			f = &RankFailure{Rank: c.rank, Site: "fenced", Kind: KindTimeout}
		}
		panic(failurePanic{f: f})
	}
}

// Deadline returns the per-blocking-operation deadline of this run (0 =
// none).
func (c *Comm) Deadline() time.Duration { return c.world.deadline }

// CheckDeadline panics with a timeout failure when the elapsed time since
// start exceeds the run's deadline. Resilient algorithms call it in their
// polling loops so a wedged lease-holder cannot stall the build forever.
func (c *Comm) CheckDeadline(site string, start time.Time) {
	d := c.world.deadline
	if d <= 0 {
		return
	}
	if el := time.Since(start); el > d {
		panic(timeoutPanic{rank: c.rank, site: site, elapsed: el})
	}
}

// FailedRanks returns the ranks currently known dead (killed, panicked)
// or fenced after abandonment, ascending. Timed-out waiters are not
// included — they are healthy ranks that gave up on a stuck peer.
func (c *Comm) FailedRanks() []int {
	w := c.world
	w.failMu.Lock()
	defer w.failMu.Unlock()
	out := []int{}
	for r := range w.size {
		if w.failedLocked(r) {
			out = append(out, r)
		}
	}
	return out
}

// failedLocked reports whether rank r is known dead or fenced; the
// caller holds failMu.
func (w *World) failedLocked(r int) bool {
	if w.fenced[r].Load() {
		return true
	}
	for _, f := range w.failures {
		if f.Rank == r && f.Kind != KindTimeout {
			return true
		}
	}
	return false
}

package ddi

// Lease-based dynamic load balancing: the fault-aware DLB mode.
//
// The classic dlbnext counter hands out each task index exactly once and
// forgets it — if the drawing rank dies, the index dies with it and the
// Fock matrix silently loses those quartets' contributions. Following the
// task re-issue idea from dynamic-distribution Hartree-Fock work (HONPAS;
// see PAPERS.md), a lease cycle instead tracks per-task state in a shared
// counter window:
//
//	0        free       — not yet claimed by anyone
//	rank+1   leased     — claimed by that world rank, result not pushed
//	-(rank+2) committing — that rank won the commit race and is pushing
//	-1       done       — contribution pushed to the shared result
//
// Ranks draw indices from a cursor (one-sided fetch-and-add, exactly like
// dlbnext) and claim them with a CAS. Publication is two-phase: a rank
// first Reserves the slot (CAS owner → committing), then pushes its
// contribution, then Finishes (CAS committing → done). Exactly-once
// completion rests on two invariants:
//
//  1. Only the Reserve winner may push, and the done-mark follows its
//     push, so "done" implies "pushed exactly once" — the property
//     AllComplete readers rely on to read the full shared result.
//  2. Every slot transition is a CAS from a unique prior state. A
//     straggler's own commit, a hedger's speculative commit, an expiry
//     reclaim, and a post-failure steal all race through CAS on the same
//     slot; exactly one wins and every loser drops its (duplicate)
//     result. First writer wins, duplicates never double-count.
//
// Three re-issue paths give the lease table its straggler story
// (performance faults, not just crash faults):
//
//   - Steal: re-issue leases of ranks known DEAD (crash faults, PR 1).
//   - Expired: reclaim leases older than a TTL — deadline-based early
//     expiry for ranks that are unresponsive but not provably dead.
//   - Hedge: speculatively recompute a lease still held by a rank the
//     straggler detector flagged as slow, WITHOUT taking the lease away;
//     whoever finishes first commits, the other is deduplicated.
//
// Drain is the one loop that draws and then runs the three paths until
// the cycle is done; consumers supply only the task and its commit.
import (
	"fmt"
	"time"

	"repro/internal/mpi"
	"repro/internal/telemetry"
)

const (
	leaseFree int64 = 0
	leaseDone int64 = -1
)

// The drain's hedge trigger: a rank is a straggler once its task latency
// EWMA exceeds hedgeK times the median, over ranks with at least
// hedgeMinSamples tasks each (FlagStragglers).
const (
	hedgeK          = 2
	hedgeMinSamples = 3
)

// LeaseDLB is one rank's handle to a lease-based DLB cycle.
type LeaseDLB struct {
	ctx     *Context
	total   int
	state   *mpi.Win     // per-task lease state, total slots
	ts      *mpi.Win     // per-task claim timestamps (UnixNano), total slots
	cur     *mpi.Win     // draw cursor, 1 slot
	hedge   *mpi.Win     // per-task hedge-rights claims, total slots
	hedged  map[int]bool // task indices this rank already scanned past (local)
	hedgeAt int          // rolling scan offset for Hedge

	// DrawChunk's telemetry handles, resolved once per cycle.
	draws    *telemetry.Counter
	drawHist *telemetry.Histogram
}

// NewLeaseDLB starts a new lease cycle over task indices [0, total).
// Every rank of the communicator must call it once per cycle, in the same
// order (it creates the cycle's windows), but — unlike DLBReset — it does
// NOT barrier: survivors of a rank failure can still open their handle
// and finish the cycle. Fresh windows per cycle make zeroing (and its
// races) unnecessary.
func (d *Context) NewLeaseDLB(total int) *LeaseDLB {
	c := d.Comm
	l := &LeaseDLB{ctx: d, total: total,
		state:    c.WinCreate(0, total),
		ts:       c.WinCreate(0, total),
		cur:      c.WinCreate(0, 1),
		hedge:    c.WinCreate(0, total),
		hedged:   make(map[int]bool),
		draws:    c.Telemetry().Counter("ddi.lease.draws"),
		drawHist: c.Telemetry().Histogram("dlb.draw.lease-draw_ns"),
	}
	if size := c.Size(); size > 0 {
		// Desynchronize hedger scans so concurrent hedgers fan out over
		// different slots instead of piling on the lowest leased index.
		l.hedgeAt = c.Rank() * (total/size + 1)
	}
	return l
}

func (l *LeaseDLB) me() int64         { return int64(l.ctx.Comm.Rank()) + 1 }
func (l *LeaseDLB) committing() int64 { return -(int64(l.ctx.Comm.Rank()) + 2) }

// stamp records the claim time of a freshly (re-)leased slot, the clock
// the TTL expiry path reads.
func (l *LeaseDLB) stamp(idx int) {
	l.ts.Store(idx, time.Now().UnixNano())
}

// DrawChunk draws up to n (at least 1) consecutive fresh indices in ONE
// cursor fetch-and-add, claims each with a CAS and appends the claimed
// ones to buf, which the caller owns and may reuse from draw to draw. ok
// is false once the cursor is exhausted. ok with fewer indices than
// drawn — none, even — means a concurrent Steal claimed the rest first
// (a drawn index sits free behind the cursor until its claim lands); the
// cursor may still hold tasks, so the caller draws again.
func (l *LeaseDLB) DrawChunk(buf []int, n int) (idxs []int, ok bool) {
	l.draws.Add(1)
	defer l.ctx.Comm.Telemetry().Start("dlb.draw", "lease-draw", l.ctx.Comm.Rank(), 0, l.drawHist).End(nil)
	n = max(n, 1)
	v := l.cur.FetchAdd(0, int64(n))
	if v >= int64(l.total) {
		return buf, false
	}
	hi := min(v+int64(n), int64(l.total))
	idxs = buf
	for i := v; i < hi; i++ {
		if l.state.CAS(int(i), leaseFree, l.me()) {
			l.stamp(int(i))
			idxs = append(idxs, int(i))
		}
	}
	return idxs, true
}

// Reserve opens the commit critical section for a task: it CASes the
// slot from "leased by owner" to "committing by me". Only the winner may
// push the task's contribution to the shared result; it must then call
// Finish. owner is the world rank whose lease is being committed — the
// caller itself for its own draws, the straggler for a hedged recompute.
// A false return means someone else already committed (or is committing)
// the task: the caller MUST drop its duplicate result.
func (l *LeaseDLB) Reserve(idx, owner int) bool {
	if l.state.CAS(idx, int64(owner)+1, l.committing()) {
		return true
	}
	l.ctx.Comm.Telemetry().Counter("dlb.dedup_dropped").Add(1)
	return false
}

// Finish closes the commit critical section opened by a successful
// Reserve: the pushed contribution becomes visible as done.
func (l *LeaseDLB) Finish(idx int) {
	if !l.state.CAS(idx, l.committing(), leaseDone) {
		panic(fmt.Sprintf("ddi: lease %d finish without reserve (rank %d)", idx, l.ctx.Comm.Rank()))
	}
}

// mine reports whether the task's lease is still held by this rank. A
// straggler polling it before starting each remaining task of a drawn
// chunk can skip work a hedger has already committed (or an expiry has
// reclaimed) instead of computing a result that would only be dropped.
func (l *LeaseDLB) mine(idx int) bool {
	return l.state.Load(idx) == l.me()
}

// Steal re-issues one task abandoned by a failed rank: either still
// leased by a rank now known dead, or drawn but never claimed (the owner
// died between its draw and its claim — such slots sit free BEHIND the
// cursor). Returns ok=false when there is nothing to steal right now;
// poll AllComplete to distinguish "nothing ever" from "peers still
// working". Committing slots are never stolen — under the fault model
// ranks die at communication events, not inside the push critical
// section, so a committing slot always reaches done.
func (l *LeaseDLB) Steal() (idx int, ok bool) {
	failed := l.ctx.Comm.FailedRanks()
	if len(failed) == 0 {
		return -1, false
	}
	dead := make(map[int64]bool, len(failed))
	for _, r := range failed {
		dead[int64(r)+1] = true
	}
	cur := l.cur.Load(0)
	if cur > int64(l.total) {
		cur = int64(l.total)
	}
	for i := int64(0); i < cur; i++ {
		s := l.state.Load(int(i))
		if s == leaseFree || dead[s] {
			if l.state.CAS(int(i), s, l.me()) {
				l.stamp(int(i))
				l.reissued("ddi.lease.steals", "lease-steal", map[string]any{"task": int(i), "from": s - 1})
				return int(i), true
			}
		}
	}
	return -1, false
}

// Expired reclaims one lease older than ttl held by another rank —
// deadline-based early expiry for a peer that is unresponsive but not
// provably dead. The lease transfers to the caller (restamped), so the
// reclaimed task flushes through the normal own-draw path; if the
// original owner wakes up and finishes anyway, its commit loses the
// Reserve race and is deduplicated. ttl <= 0 disables expiry.
func (l *LeaseDLB) Expired(ttl time.Duration) (idx int, ok bool) {
	if ttl <= 0 {
		return -1, false
	}
	now := time.Now().UnixNano()
	for i := 0; i < l.total; i++ {
		s := l.state.Load(i)
		if s <= 0 || s == l.me() {
			continue
		}
		ts := l.ts.Load(i)
		if ts == 0 || now-ts < ttl.Nanoseconds() {
			continue
		}
		if l.state.CAS(i, s, l.me()) {
			l.stamp(i)
			l.reissued("ddi.lease.expired", "lease-expired", map[string]any{"task": i, "from": s - 1})
			return i, true
		}
	}
	return -1, false
}

// reissued records one re-issued lease: the path's own counter,
// dlb.reissued and a recovery.reissue instant named by the path.
func (l *LeaseDLB) reissued(counter, name string, args map[string]any) {
	tel := l.ctx.Comm.Telemetry()
	tel.Counter(counter).Add(1)
	tel.Counter("dlb.reissued").Add(1)
	tel.Instant("recovery.reissue", name, l.ctx.Comm.Rank(), 0, args)
}

// Hedge picks one task still leased by a rank in slow (world ranks, from
// the straggler detector) for speculative recomputation. The lease is
// NOT transferred — the straggler keeps computing — so commit is a fair
// race: whichever copy Reserves first wins, the other is deduplicated.
// Hedge rights are claimed through a shared window CAS, so at most ONE
// speculative copy of a task ever runs cluster-wide: concurrent hedgers
// spread over different tasks instead of all recomputing the same ones
// (which would trade the straggler's tail for redundant-compute tail).
// The scan starts at a rank-dependent rolling offset so hedgers probe
// disjoint regions first. Returns the task index and the straggler's
// rank to pass to Reserve.
func (l *LeaseDLB) Hedge(slow []int) (idx, owner int, ok bool) {
	if len(slow) == 0 || l.total == 0 {
		return -1, -1, false
	}
	slowSet := make(map[int64]bool, len(slow))
	for _, r := range slow {
		if r != l.ctx.Comm.Rank() {
			slowSet[int64(r)+1] = true
		}
	}
	if len(slowSet) == 0 {
		return -1, -1, false
	}
	for n := 0; n < l.total; n++ {
		i := (l.hedgeAt + n) % l.total
		if l.hedged[i] {
			continue
		}
		s := l.state.Load(i)
		if !slowSet[s] {
			continue
		}
		if !l.hedge.CAS(i, 0, l.me()) {
			// Another rank already holds this task's hedge rights.
			l.hedged[i] = true
			continue
		}
		l.hedged[i] = true
		l.hedgeAt = (i + 1) % l.total
		l.reissued("dlb.hedged", "lease-hedge", map[string]any{"task": i, "owner": s - 1})
		return i, int(s - 1), true
	}
	return -1, -1, false
}

// AllComplete reports whether every task index has been drawn and marked
// done — the cycle's termination condition. Because contributions are
// pushed inside the Reserve→Finish critical section, a rank observing
// AllComplete may safely read the full shared result.
func (l *LeaseDLB) AllComplete() bool {
	if l.cur.Load(0) < int64(l.total) {
		return false
	}
	for i := 0; i < l.total; i++ {
		if l.state.Load(i) != leaseDone {
			return false
		}
	}
	return true
}

// Drained counts how one rank's share of a lease cycle was run.
type Drained struct {
	Drawn   int64 // fresh tasks claimed from the cursor
	Stolen  int64 // leases re-issued off dead ranks
	Hedged  int64 // leases of flagged stragglers recomputed speculatively
	Expired int64 // leases reclaimed past the TTL
}

// Drain runs this rank's share of the cycle to completion; it is the one
// drain loop of every lease consumer. The draw phase claims chunks of up
// to chunk fresh tasks and runs each task the rank still holds (a hedger
// may have committed a slow rank's chunk meanwhile). Then, until
// AllComplete, it re-issues work: leases of dead ranks (Steal), leases
// of flagged stragglers when hedge is set (Hedge), and leases older than
// the TTL (Expired). The TTL is half the run's deadline, so a silent
// peer is reclaimed while the other half is left to recompute its task;
// no deadline, no expiry. Progress resets the wait clock; a wedged cycle
// still times out at the deadline.
//
// run(idx, owner) computes one task for the lease owner holds and
// commits it (Reserve → push → Finish), at once or buffered. commit, if
// not nil, flushes buffered results: Drain calls it when the draw phase
// ends and after every re-issued task, so it never waits on a result
// this rank holds back.
func (l *LeaseDLB) Drain(chunk int, hedge bool, run func(idx, owner int), commit func()) Drained {
	var n Drained
	flush := func() {
		if commit != nil {
			commit()
		}
	}
	me := l.ctx.Comm.Rank()
	var idxs []int // one buffer for every draw of the cycle
	for {
		var ok bool
		if idxs, ok = l.DrawChunk(idxs[:0], chunk); !ok {
			break
		}
		n.Drawn += int64(len(idxs))
		for _, idx := range idxs {
			if l.mine(idx) {
				run(idx, me)
			}
		}
	}
	flush()

	ttl := l.ctx.Comm.Deadline() / 2
	start := time.Now()
	for !l.AllComplete() {
		idx, owner, ok := l.reissue(hedge, ttl, &n)
		if !ok {
			l.ctx.Comm.CheckDeadline("lease drain", start)
			time.Sleep(200 * time.Microsecond)
			continue
		}
		run(idx, owner)
		flush()
		start = time.Now()
	}
	return n
}

// reissue takes one task to re-run, in the drain's order of preference:
// steal from the dead, hedge a straggler, reclaim an expired lease. owner
// is the rank whose lease the result commits.
func (l *LeaseDLB) reissue(hedge bool, ttl time.Duration, n *Drained) (idx, owner int, ok bool) {
	me := l.ctx.Comm.Rank()
	if idx, ok := l.Steal(); ok {
		n.Stolen++
		return idx, me, true
	}
	if hedge {
		if slow := l.ctx.Stragglers(hedgeK, hedgeMinSamples); len(slow) > 0 {
			if idx, owner, ok := l.Hedge(slow); ok {
				n.Hedged++
				return idx, owner, true
			}
		}
	}
	if idx, ok := l.Expired(ttl); ok {
		n.Expired++
		return idx, me, true
	}
	return -1, -1, false
}

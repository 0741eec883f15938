package fock

import (
	"fmt"
	"time"

	"repro/internal/ddi"
	"repro/internal/integrals"
	"repro/internal/linalg"
)

// ResilientBuild is the fault-aware Fock construction: Algorithm 1's
// quartet distribution re-based on the lease-granting DLB
// (ddi.LeaseDLB), with the closing gsumf replaced by one-sided
// accumulation into a shared window. A build survives mid-flight rank
// death AND mitigates mid-flight rank slowness — survivors re-issue a
// dead rank's leases (Steal), and fast ranks speculatively recompute a
// flagged straggler's outstanding leases (Hedge) or forcibly reclaim
// stale ones (Expired) — and still produce a Fock matrix with every
// symmetry-unique shell quartet counted exactly once, because:
//
//   - Each combined (i, j) shell-pair task is claimed through a lease
//     and committed two-phase: the committer Reserves the lease (a CAS
//     only one contender can win), pushes its contribution (WinAcc),
//     then marks it done. Losers of the Reserve race — the straggler
//     whose task was hedged faster, or the hedger that lost — drop
//     their duplicate results locally, so re-issued work never
//     double-counts (first writer wins).
//   - No blocking collective or barrier appears anywhere in the build;
//     survivors never touch an operation a dead peer can poison. The
//     only waits are bounded polls on the lease table.
//
// Call from inside mpi.Run on every rank, like the other builders. The
// returned matrices (one per channel) are identical on all surviving
// ranks.
func ResilientBuild(dx *ddi.Context, eng *integrals.Engine,
	sch *integrals.Schwarz, chans []Channel, cfg Config) ([]*linalg.Matrix, Stats) {
	n := eng.Basis.NumBF
	w := newWalker(dx, eng, sch, cfg)
	stats := &w.st
	tel := dx.Comm.Telemetry()
	rank := dx.Comm.Rank()

	lease := dx.NewLeaseDLB(NumPairs(len(w.shells)))
	win := fmt.Sprintf("fock.resilient.%d", lease.Cycle())
	dx.Comm.WinCreate(win, len(chans)*n*n)

	// Contributions are buffered PER TASK so the flush can commit each
	// task independently: under speculation two ranks may hold results
	// for the same ij, and only the Reserve winner's copy may reach the
	// shared window. Channel c owns window slots [c*n*n, (c+1)*n*n).
	var pending []pendingTask
	sinks := make([]*pendingSink, len(chans))
	for c := range sinks {
		sinks[c] = &pendingSink{base: c * n * n, n: n}
	}
	w.chans = bind(chans, func(c int) sink { return sinks[c] })

	computePair := func(ij, owner int) {
		i, j := PairDecode(ij)
		defer w.span("pair", 0, i, j)()
		task := pendingTask{ij: ij, owner: owner}
		for _, s := range sinks {
			s.task = &task
		}
		t0 := time.Now()
		before := stats.QuartetsComputed
		w.pair(i, j)
		task.quartets = stats.QuartetsComputed - before
		w.observe(t0)
		// SDC hook: one corruption opportunity per completed task, applied
		// to the still-local values — outside the Reserve→push→Finish
		// critical section, so the exactly-once guarantee is untouched.
		// The poison reaches the shared window on the next flush and must
		// be caught by the SCF-side validators after WinGet.
		w.injectSDC(task.val)
		pending = append(pending, task)
	}

	// flush is the commit critical section the exactly-once guarantee
	// rests on: Reserve each pending task (losers drop their duplicate
	// results), push the winners' contributions in one accumulate, then
	// mark the reserved leases done. Nothing in between blocks or
	// contains a fault-injection site.
	batch := make([]float64, len(chans)*n*n)
	flush := func() {
		if len(pending) == 0 {
			return
		}
		var reserved []int
		dirty := false
		for _, task := range pending {
			if !lease.Reserve(task.ij, task.owner) {
				stats.TasksDeduped++
				continue
			}
			reserved = append(reserved, task.ij)
			stats.QuartetsCommitted += task.quartets
			for i, p := range task.pos {
				batch[p] += task.val[i]
			}
			dirty = true
		}
		pending = pending[:0]
		if dirty {
			dx.Comm.WinAcc(win, 0, batch)
			clear(batch)
		}
		for _, ij := range reserved {
			lease.Finish(ij)
		}
		stats.Flushes++
	}

	// flushEvery bounds how much computed work a death can force to be
	// redone (a dying rank's unflushed tasks are recomputed elsewhere).
	const flushEvery = 16

	for {
		ij, ok := lease.Next()
		if !ok {
			break
		}
		stats.DLBGrabs++
		computePair(ij, rank)
		if len(pending) >= flushEvery {
			flush()
		}
	}
	flush()

	// Drain phase: until every task is done, re-issue work three ways —
	// steal leases orphaned by failed ranks, hedge (speculatively
	// recompute) leases still held by flagged stragglers, and reclaim
	// leases older than the TTL. Progress anywhere resets the local wait
	// clock; a wedged run still times out via the deadline.
	//
	// The TTL is half the run's blocking deadline: a peer silent that
	// long is reclaimed while the drain still has the other half to
	// recompute its task before anyone times out. No deadline (0) means
	// no expiry.
	leaseTTL := dx.Comm.Deadline() / 2
	start := time.Now()
	for !lease.AllComplete() {
		if ij, ok := lease.Steal(); ok {
			stats.TasksReissued++
			stats.DLBGrabs++
			if tel != nil {
				tel.Counter("fock.tasks_reissued").Add(1)
				tel.Instant("recovery.reissue", "task-reissue", rank, 0,
					map[string]any{"ij": ij})
			}
			computePair(ij, rank)
			flush()
			start = time.Now()
			continue
		}
		if slow := dx.Stragglers(hedgeK, hedgeMinSamples); len(slow) > 0 {
			if ij, owner, ok := lease.Hedge(slow); ok {
				stats.TasksHedged++
				computePair(ij, owner)
				flush()
				start = time.Now()
				continue
			}
		}
		if ij, ok := lease.Expired(leaseTTL); ok {
			stats.TasksReissued++
			computePair(ij, rank)
			flush()
			start = time.Now()
			continue
		}
		dx.Comm.CheckDeadline("resilient-fock drain", start)
		time.Sleep(200 * time.Microsecond)
	}

	// All tasks pushed; the window now holds the complete lower-triangle
	// accumulation of every channel and is safe to read one-sidedly.
	accs := make([]*linalg.Matrix, len(chans))
	for c := range accs {
		accs[c] = linalg.NewSquare(n)
		dx.Comm.WinGet(win, c*n*n, accs[c].Data)
		Finalize(accs[c])
	}
	return accs, *stats
}

// pendingTask is one computed-but-uncommitted ij task of a resilient
// build.
type pendingTask struct {
	ij, owner int // owner = world rank whose lease this result commits
	quartets  int64
	pos       []int // window slots: channel base + canonical lower-triangle position
	val       []float64
}

// pendingSink is the resilient sink of one channel: it appends to the
// task being computed instead of touching any shared memory.
type pendingSink struct {
	task    *pendingTask
	base, n int
}

func (p *pendingSink) addBlock(_, x0, nx, y0, ny int, scale float64, blk []float64) {
	for r := 0; r < nx; r++ {
		for c, v := range blk[r*ny : r*ny+ny] {
			if v == 0 {
				continue
			}
			x, y := x0+r, y0+c
			if x < y {
				x, y = y, x
			}
			p.task.pos = append(p.task.pos, p.base+x*p.n+y)
			p.task.val = append(p.task.val, scale*v)
		}
	}
}

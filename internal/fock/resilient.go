package fock

import (
	"slices"
	"sync"
	"time"

	"repro/internal/ddi"
	"repro/internal/integrals"
	"repro/internal/linalg"
	"repro/internal/mpi"
)

// ResilientBuild is the fault-aware Fock construction: Algorithm 1's
// quartet distribution re-based on the lease-granting DLB
// (ddi.LeaseDLB), with the closing gsumf replaced by one-sided
// accumulation into a shared window. A build survives mid-flight rank
// death AND mitigates mid-flight rank slowness — survivors re-issue a
// dead rank's leases (Steal), and fast ranks speculatively recompute a
// flagged straggler's outstanding leases (Hedge) or forcibly reclaim
// stale ones (Expired), all inside ddi's one lease drain
// (LeaseDLB.Drain) — and still produce a Fock matrix with every
// symmetry-unique shell quartet counted exactly once, because:
//
//   - Each combined (i, j) shell-pair task is claimed through a lease
//     and committed two-phase: the committer Reserves the lease (a CAS
//     only one contender can win), pushes its contribution (Win.Acc),
//     then marks it done. Losers of the Reserve race — the straggler
//     whose task was hedged faster, or the hedger that lost — drop
//     their duplicate results locally, so re-issued work never
//     double-counts (first writer wins).
//   - No blocking collective or barrier appears anywhere in the build;
//     survivors never touch an operation a dead peer can poison. The
//     only waits are bounded polls on the lease table.
//
// Until its flush a computed task is staged locally: every task of the
// build appends its contributions, whole Fock blocks with their window
// offsets, to one staging area and keeps only its ranges of it (see
// staging). The flush empties the staging and keeps its capacity, and
// the staging outlives the build, so a build's commit path allocates
// nothing once the pool holds a staging of the size the basis needs.
//
// Call from inside mpi.Run on every rank, like the other builders. The
// returned matrices (one per channel) are identical on all surviving
// ranks.
func ResilientBuild(dx *ddi.Context, eng *integrals.Engine,
	sch *integrals.Schwarz, chans []Channel, cfg Config) ([]*linalg.Matrix, Stats) {
	n := eng.Basis.NumBF
	w := newWalker(dx, eng, sch, cfg)
	stats := &w.st
	chans = blockDensities(w.lay, chans)

	lease := dx.NewLeaseDLB(NumPairs(len(w.shells)))
	win := dx.Comm.WinCreate(len(chans)*n*n, 0)

	// Contributions are staged PER TASK so the flush can commit each
	// task independently: under speculation two ranks may hold results
	// for the same ij, and only the Reserve winner's copy may reach the
	// shared window. Channel c owns window slots [c*n*n, (c+1)*n*n), a
	// blocked accumulator.
	var stage *staging
	stage, w.chans = getStaging(chans, w.lay)

	// flushEvery bounds how much computed work a death can force to be
	// redone (a dying rank's unflushed tasks are recomputed elsewhere).
	// The drain also flushes after its draw phase and after each
	// re-issued task.
	const flushEvery = 16
	flush := func() { stage.flush(lease, win, stats) }
	drained := lease.Drain(1, true, func(ij, owner int) {
		stage.compute(&w, ij, owner)
		if len(stage.tasks) >= flushEvery {
			flush()
		}
	}, flush)
	stats.DLBGrabs += drained.Drawn + drained.Stolen
	stats.TasksReissued += drained.Stolen + drained.Expired
	stats.TasksHedged += drained.Hedged

	// All tasks pushed; the window now holds the complete blocked
	// accumulation of every channel and is safe to read one-sidedly. The
	// last flush left the batch zeroed, so it can take the read.
	win.Get(0, stage.batch)
	accs := make([]*linalg.Matrix, len(chans))
	for c := range accs {
		accs[c] = w.lay.finalize(stage.batch[c*n*n : (c+1)*n*n])
	}
	clear(stage.batch)
	// The staging is empty and its batch zeroed again. A rank that dies
	// mid-build never gets here, so the pool only ever holds clean
	// staging.
	stagingPool.Put(stage)
	return accs, *stats
}

// pendingTask is one computed-but-uncommitted ij task of a resilient
// build. It owns no memory: its contributions are the block records
// [blo, bhi) of the build's staging, whose values are entries [lo, hi).
type pendingTask struct {
	ij, owner int // owner = world rank whose lease this result commits
	quartets  int64
	lo, hi    int
	blo, bhi  int
}

// stagedBlock is one staged Fock block: n values, added at window offset
// pos (channel base + the block's start in the blocked accumulator).
type stagedBlock struct{ pos, n int }

// staging is one rank's commit staging of a resilient build: the
// pending tasks, the record and values of every block they staged, the
// Reserve winners of the flush in progress, the accumulate batch and the
// channels' sinks. A flush empties it and keeps its capacity; the build
// returns it to stagingPool, so the next build on the rank (the next SCF
// iteration, the next served job) stages into the same memory instead of
// growing new slices for every task.
type staging struct {
	tasks    []pendingTask
	blocks   []stagedBlock
	val      []float64
	reserved []int
	batch    []float64
	sinks    []pendingSink
	room     int // values one channel's quartet can stage
}

var stagingPool = sync.Pool{New: func() any { return new(staging) }}

// getStaging takes an empty staging from the pool, sized for the
// channels of a basis laid out as lay, and returns it with the channels
// bound to its sinks.
func getStaging(chans []Channel, lay *blocking) (*staging, []Channel) {
	st := stagingPool.Get().(*staging)
	n := lay.n
	// Every flush zeroes what it dirtied, so all of the batch's capacity
	// is zeros.
	if m := len(chans) * n * n; cap(st.batch) < m {
		st.batch = make([]float64, m)
	} else {
		st.batch = st.batch[:m]
	}
	st.room = numRoles * lay.maxNum * lay.maxNum
	st.reserve()
	st.sinks = st.sinks[:0]
	for c := range chans {
		st.sinks = append(st.sinks, pendingSink{stage: st, base: c * n * n, lay: lay})
	}
	return st, bind(chans, func(c int) sink { return &st.sinks[c] })
}

// reserve makes room for the blocks of one channel's quartet, so no
// block a sink hands out moves before the digest is done with it.
func (st *staging) reserve() {
	st.val = slices.Grow(st.val, st.room)
}

// compute runs the ij task for the lease owner holds and stages its
// contributions as the next pending task.
func (st *staging) compute(w *walker, ij, owner int) {
	i, j := PairDecode(ij)
	defer w.endSpan(w.span("pair", 0), i, j)
	task := pendingTask{ij: ij, owner: owner, lo: len(st.val), blo: len(st.blocks)}
	t0 := time.Now()
	before := w.st.QuartetsComputed
	w.pair(i, j)
	task.quartets = w.st.QuartetsComputed - before
	task.hi, task.bhi = len(st.val), len(st.blocks)
	w.observe(t0)
	// SDC hook: one corruption opportunity per completed task, applied
	// to the task's own still-local values — before the next task
	// appends, and outside the Reserve→push→Finish critical section, so
	// the exactly-once guarantee is untouched. The poison reaches the
	// shared window on the next flush and must be caught by the SCF-side
	// validators after the window read.
	w.injectSDC(st.val[task.lo:task.hi])
	st.tasks = append(st.tasks, task)
}

// flush is the commit critical section the exactly-once guarantee rests
// on: Reserve each pending task (losers drop their duplicate results),
// push the winners' contributions in one accumulate, then mark the
// reserved leases done. Nothing in between blocks or contains a
// fault-injection site. The winners' blocks reach the batch in task
// order, each task's in the order it staged them.
func (st *staging) flush(lease *ddi.LeaseDLB, win *mpi.Win, stats *Stats) {
	if len(st.tasks) == 0 {
		return
	}
	dirty := false
	for _, task := range st.tasks {
		if !lease.Reserve(task.ij, task.owner) {
			stats.TasksDeduped++
			continue
		}
		st.reserved = append(st.reserved, task.ij)
		stats.QuartetsCommitted += task.quartets
		val := st.val[task.lo:task.hi]
		for _, b := range st.blocks[task.blo:task.bhi] {
			dst := st.batch[b.pos : b.pos+b.n]
			for x, v := range val[:b.n] {
				dst[x] += v
			}
			val = val[b.n:]
		}
		dirty = true
	}
	st.tasks, st.blocks, st.val = st.tasks[:0], st.blocks[:0], st.val[:0]
	if dirty {
		win.Acc(0, st.batch)
		clear(st.batch)
	}
	for _, ij := range st.reserved {
		lease.Finish(ij)
	}
	st.reserved = st.reserved[:0]
	stats.Flushes++
}

// pendingSink is the resilient sink of one channel: it hands out zeroed
// blocks of the build's staging instead of touching any shared memory.
type pendingSink struct {
	stage *staging
	base  int
	lay   *blocking
}

func (p *pendingSink) block(_, a, b int) []float64 {
	st := p.stage
	n := p.lay.num[a] * p.lay.num[b]
	lo := len(st.val)
	st.val = st.val[:lo+n] // within the room reserve made
	st.blocks = append(st.blocks, stagedBlock{pos: p.base + p.lay.start(a, b), n: n})
	blk := st.val[lo : lo+n]
	clear(blk)
	return blk
}

func (p *pendingSink) done() { p.stage.reserve() }

package fock

import (
	"slices"
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
// offsets, to the builder's staging and keeps only its ranges of it (see
// staging). The accumulation window and the lease table are each
// build's own: a build has no barrier at which every rank could agree to
// reset them, and that absence is what lets it survive a rank death.
//
// Construct it inside mpi.Run on every rank, like the other presets.
// Build returns matrices (one per channel) identical on all surviving
// ranks.
func ResilientBuild(dx *ddi.Context, eng *integrals.Engine,
	sch *integrals.Schwarz, cfg Config) *Builder {
	n := eng.Basis.NumBF
	b := newBuilder(dx, eng, cfg.Quartets, sch, DefaultTau, 1)
	w := &b.lanes[0]

	// Contributions are staged PER TASK so the flush can commit each
	// task independently: under speculation two ranks may hold results
	// for the same ij, and only the Reserve winner's copy may reach the
	// shared window. Channel c owns window slots [c*n*n, (c+1)*n*n), a
	// blocked accumulator.
	stage := &staging{room: numRoles * b.lay.maxNum * b.lay.maxNum}
	var gs [][]float64 // the batch's channels
	b.bind = func(nchan int) {
		stage.batch, gs = make([]float64, nchan*n*n), make([][]float64, nchan)
		b.acc = append(b.acc, stage.batch)
		for c := range gs {
			gs[c] = stage.batch[c*n*n : (c+1)*n*n]
			w.chans[c].out = &pendingSink{stage: stage, base: c * n * n, lay: b.lay}
		}
		stage.size(w, nchan)
	}

	var win *mpi.Win
	b.walk = func() {
		lease := dx.NewLeaseDLB(NumPairs(len(w.shells)))
		win = dx.Comm.WinCreate(len(stage.batch), 0)
		flush := func() { stage.flush(lease, win, &w.st) }
		drained := lease.Drain(1, true, func(ij, owner int) {
			stage.compute(w, ij, owner)
			if len(stage.tasks) >= flushEvery {
				flush()
			}
		}, flush)
		w.st.DLBGrabs += drained.Drawn + drained.Stolen
		w.st.TasksReissued += drained.Stolen + drained.Expired
		w.st.TasksHedged += drained.Hedged
	}

	// All tasks pushed; the window now holds the complete blocked
	// accumulation of every channel and is safe to read one-sidedly, into
	// the batch the next build clears.
	b.close = func() []*linalg.Matrix {
		win.Get(0, stage.batch)
		return closeBuild(b.lay, gs)
	}
	return b
}

// flushEvery bounds how much computed work a death can force to be
// redone (a dying rank's unflushed tasks are recomputed elsewhere), and
// with it how many tasks a rank holds staged. The drain also flushes
// after its draw phase and after each re-issued task.
const flushEvery = 16

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
// Reserve winners of the flush in progress and the accumulate batch. A
// flush empties it and keeps its capacity; the builder owns it, so every
// build on the rank stages into the same memory.
type staging struct {
	tasks    []pendingTask
	blocks   []stagedBlock
	val      []float64
	reserved []int
	batch    []float64
	room     int // values one channel's quartet can stage
}

// size makes the staging, once, as large as a rank's pending tasks
// need: the last flushEvery tasks, the largest of the canonical order,
// each staging six blocks per channel for every quartet that survives
// the screen (a Coulomb-only or exchange-only channel stages fewer),
// plus the room one quartet reserves. No build of the attempt then grows
// it, bar a rank whose pending tasks outgrow those.
func (st *staging) size(w *walker, nchan int) {
	num, vals, quartets := w.lay.num, 0, 0
	npairs := NumPairs(len(num))
	for ij := max(npairs-flushEvery, 0); ij < npairs; ij++ {
		i, j := PairDecode(ij)
		for k := 0; k <= i; k++ {
			for l := 0; l <= quartetLoopBounds(i, j, k); l++ {
				if w.survives(i, j, k, l) {
					ni, nj, nk, nl := num[i], num[j], num[k], num[l]
					vals, quartets = vals+ni*nj+nk*nl+ni*nk+nj*nl+ni*nl+nj*nk, quartets+1
				}
			}
		}
	}
	st.val = make([]float64, 0, nchan*vals+st.room)
	st.blocks = make([]stagedBlock, 0, nchan*numRoles*quartets)
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
	st.val = st.val[:lo+n] // within the room size or done made
	st.blocks = append(st.blocks, stagedBlock{pos: p.base + p.lay.start(a, b), n: n})
	blk := st.val[lo : lo+n]
	clear(blk)
	return blk
}

// done makes room for the blocks of the next channel's quartet, so no
// block a sink hands out moves before the digest is done with it.
func (p *pendingSink) done() { p.stage.val = slices.Grow(p.stage.val, p.stage.room) }

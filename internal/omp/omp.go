// Package omp provides an OpenMP-like threading runtime: fork-join
// parallel regions executed by a fixed team of goroutines, work-shared
// loops under the dynamic schedule (including the collapse(2) form of
// the paper's Algorithm 2), master sections, barriers, and the chunked
// tree reduction used to flush per-thread Fock buffers (paper Figure 1).
//
// Semantics mirror the OpenMP constructs the paper's pragmas use: every
// thread of a region must reach the same work-sharing constructs in the
// same order (SPMD), For has an implicit end barrier, and Master has no
// implied barrier.
package omp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ScheduleKind names a loop schedule. Dynamic — threads grab chunks from
// a shared counter — is the paper's schedule(dynamic,1), the schedule of
// every work-shared loop in Algorithms 2 and 3 and the only one here.
type ScheduleKind int

const Dynamic ScheduleKind = iota

// Schedule is a loop schedule with a chunk size (0 means 1).
type Schedule struct {
	Kind  ScheduleKind
	Chunk int
}

// Team executes parallel regions with a fixed number of threads, one
// region at a time: like an OpenMP runtime's thread pool, it keeps its
// region state (barrier, loop counters, per-thread Contexts) from one
// Parallel call to the next.
type Team struct {
	n int
	r *region // nil before the first region and after one that panicked
}

// NewTeam returns a team of n threads (n >= 1).
func NewTeam(n int) *Team {
	if n < 1 {
		panic("omp: team needs at least one thread")
	}
	return &Team{n: n}
}

// NumThreads returns the team width.
func (t *Team) NumThreads() int { return t.n }

// region is the shared state of a team's parallel regions.
type region struct {
	n       int
	barrier *barrier
	ctxs    []Context
	wg      sync.WaitGroup
	panics  chan any
	// loops are the shared next-iteration counters of the work-shared
	// loops, alternating by construct parity. Two are enough: the thread
	// that takes the last chunk of one construct zeroes the OTHER counter,
	// which the construct before last used and every thread left before the
	// barrier that closed it, and which the next construct cannot touch
	// before this thread reaches the barrier closing this one.
	loops [2]atomic.Int64
}

// A barrier waiter spins spinLoads loads, then yields its P for up to
// yieldBudget, then parks. Measured on the 2-vCPU host (EXPERIMENTS.md
// EXP-P1) on benzene/STO-3G shared-fock 1x2, medians of 7 SCFs: park only
// 594 ms wall, 230 ms of summed barrier wait, 5,230 parks; yield 100 µs
// 462 ms, 19-22 ms, 4-6 parks, user CPU unchanged at 0.88 s. A 20 µs
// budget still parks 159 times (BenchmarkBarrierAfterWork 67 µs/op
// against 47) and 1 ms gains nothing over 100 µs. The yield carries the
// whole gain: the spin is below this host's resolution (462 ms with 0,
// 200 or 2,000 loads; 12.3 µs/op at 12 µs of work either way), so it
// stays at the ~0.1 µs that cannot hurt an oversubscribed team.
const (
	spinLoads   = 200
	yieldBudget = 100 * time.Microsecond
)

// barrier is a reusable sense-reversing team barrier on atomics: the last
// arriver of an episode flips gen, which is what every waiter watches.
// Waiting has three phases, each for one regime. Spin: a teammate running
// on its own core that arrives within ~0.1 µs is met without a trip
// through the scheduler (skipped when GOMAXPROCS is 1 — nobody can arrive
// while we hold the only P). Yield: runtime.Gosched keeps polling, so an
// otherwise idle P never reaches the runtime's futex sleep, whose wake-up
// costs ~19 µs, yet hands the P to any runnable goroutine, which on an
// oversubscribed team is the teammate being waited for. Park:
// past the budget the wait is a real stall (a DLB draw behind a slow
// rank, a chaos delay), so sleep on the cond; the releaser pays for a
// broadcast only if someone is parked.
type barrier struct {
	size    int32
	spin    int
	arrived atomic.Int32
	gen     atomic.Uint32
	parked  atomic.Int32
	mu      sync.Mutex
	cond    *sync.Cond
}

func newBarrier(n int) *barrier {
	b := &barrier{size: int32(n)}
	if runtime.GOMAXPROCS(0) > 1 {
		b.spin = spinLoads
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() {
	if b.size == 1 {
		return
	}
	// gen cannot move before this thread arrives, so the load is the
	// episode's own number.
	gen := b.gen.Load()
	if b.arrived.Add(1) == b.size {
		b.arrived.Store(0)
		b.gen.Add(1)
		// A waiter raises parked BEFORE it re-checks gen, so either it sees
		// the new gen or this load sees it parked: no lost wake-up.
		if b.parked.Load() > 0 {
			b.mu.Lock()
			b.cond.Broadcast()
			b.mu.Unlock()
		}
		return
	}
	for i := 0; i < b.spin; i++ {
		if b.gen.Load() != gen {
			return
		}
	}
	for t0 := time.Now(); time.Since(t0) < yieldBudget; {
		runtime.Gosched()
		if b.gen.Load() != gen {
			return
		}
	}
	b.mu.Lock()
	b.parked.Add(1)
	for b.gen.Load() == gen {
		b.cond.Wait()
	}
	b.parked.Add(-1)
	b.mu.Unlock()
}

// Context is a thread's view of the enclosing parallel region.
type Context struct {
	id       int
	region   *region
	seq      int // work-shared loops this thread has entered
	barriers int // barriers this thread has passed
}

// ThreadID returns this thread's id in [0, NumThreads).
func (c *Context) ThreadID() int { return c.id }

// NumThreads returns the region's team width.
func (c *Context) NumThreads() int { return c.region.n }

// Parallel runs body on every team thread and returns when all finish.
// A panic in any thread is re-raised on the caller after the region
// drains (other threads may deadlock on barriers if the panicking thread
// held them; regions are expected to be panic-free in production paths),
// and the team builds its next region afresh. Calls must not overlap.
func (t *Team) Parallel(body func(tc *Context)) {
	r := t.r
	if r == nil {
		r = &region{n: t.n, barrier: newBarrier(t.n), ctxs: make([]Context, t.n), panics: make(chan any, t.n)}
		for i := range r.ctxs {
			r.ctxs[i] = Context{id: i, region: r}
		}
		t.r = r
	}
	// Every thread left the last region's loops and barriers behind its
	// closing wg.Wait, so its counters can be reset here.
	r.loops[0].Store(0)
	r.loops[1].Store(0)
	r.wg.Add(t.n)
	for i := range r.ctxs {
		tc := &r.ctxs[i]
		tc.seq, tc.barriers = 0, 0
		go r.run(tc, body)
	}
	r.wg.Wait()
	select {
	case p := <-r.panics:
		t.r = nil
		panic(p)
	default:
	}
}

// run is one thread of a region.
func (r *region) run(tc *Context, body func(tc *Context)) {
	defer r.wg.Done()
	defer func() {
		if p := recover(); p != nil {
			r.panics <- p
		}
	}()
	body(tc)
}

// Barrier blocks until every thread of the region reaches it.
func (c *Context) Barrier() {
	c.barriers++
	c.region.barrier.await()
}

// Barriers returns how many barriers (explicit, or closing a For) this
// thread has passed in the region — the machine-independent cost of a
// preset's synchronisation.
func (c *Context) Barriers() int { return c.barriers }

// Master runs f on thread 0 only, with no implied synchronization — the
// caller must pair it with Barrier, exactly as the paper's Algorithms 2-3
// do around the DLB index fetch.
func (c *Context) Master(f func()) {
	if c.id == 0 {
		f()
	}
}

// For work-shares iterations [0, n) across the team with the given
// schedule and barriers at the end (like `omp do`). All threads must call
// it with identical arguments.
func (c *Context) For(n int, sched Schedule, body func(i int)) {
	c.forLoop(n, sched, body)
	c.Barrier()
}

func (c *Context) forLoop(n int, sched Schedule, body func(i int)) {
	if n <= 0 {
		return
	}
	c.seq++
	next, other := &c.region.loops[c.seq&1], &c.region.loops[(c.seq+1)&1]
	chunk := sched.Chunk
	if chunk <= 0 {
		chunk = 1
	}
	for {
		lo := int(next.Add(int64(chunk))) - chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi >= n {
			// Last chunk: ready the other counter for the next construct.
			hi = n
			other.Store(0)
		}
		for i := lo; i < hi; i++ {
			body(i)
		}
	}
}

// StaticRange partitions [0, n) into NumThreads contiguous blocks and
// returns this thread's [lo, hi). Used by the chunked buffer flushes.
func (c *Context) StaticRange(n int) (lo, hi int) {
	per := (n + c.region.n - 1) / c.region.n
	lo = c.id * per
	hi = lo + per
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// Collapse2 flattens a rectangular (n1 x n2) iteration space and
// work-shares it with the given schedule, calling body(i1, i2). This is
// the paper's `collapse(2) schedule(dynamic,1)` over the (j, k) loops.
func (c *Context) Collapse2(n1, n2 int, sched Schedule, body func(i1, i2 int)) {
	c.For(n1*n2, sched, func(flat int) {
		body(flat/n2, flat%n2)
	})
}

// ReduceChunked sums the per-thread buffers into target using the paper's
// Figure 1(B) pattern: the rows of the buffer matrix are partitioned among
// threads in chunks (avoiding false sharing), each thread accumulating all
// thread-columns for its rows. Buffers are zeroed afterwards, ready for
// the next accumulation cycle. No internal barrier: callers place
// barriers per Algorithm 3.
func (c *Context) ReduceChunked(target []float64, buffers [][]float64) {
	lo, hi := c.StaticRange(len(target))
	for _, buf := range buffers {
		for i := lo; i < hi; i++ {
			target[i] += buf[i]
			buf[i] = 0
		}
	}
}

// Package omp provides an OpenMP-like threading runtime: fork-join
// parallel regions executed by a fixed team of goroutines, work-shared
// loops with static, dynamic, and guided schedules (including the
// collapse(2) dynamic schedule of the paper's Algorithm 2), master/single
// sections, barriers, critical sections, and the chunked tree reduction
// used to flush per-thread Fock buffers (paper Figure 1).
//
// Semantics mirror the OpenMP constructs the paper's pragmas use: every
// thread of a region must reach the same work-sharing constructs in the
// same order (SPMD), For has an implicit end barrier unless the NoWait
// variant is used, and Master has no implied barrier.
package omp

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ScheduleKind selects a loop schedule.
type ScheduleKind int

// Loop schedules. Static hands each thread contiguous chunks round-robin;
// Dynamic lets threads grab chunks from a shared counter (the paper's
// schedule(dynamic,1)); Guided shrinks chunk sizes as work drains.
const (
	Static ScheduleKind = iota
	Dynamic
	Guided
)

func (k ScheduleKind) String() string {
	switch k {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	default:
		return fmt.Sprintf("ScheduleKind(%d)", int(k))
	}
}

// Schedule is a loop schedule with a chunk size (0 means the schedule's
// natural default).
type Schedule struct {
	Kind  ScheduleKind
	Chunk int
}

// Team executes parallel regions with a fixed number of threads.
type Team struct {
	n int
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

// region is the shared state of one parallel region.
type region struct {
	n        int
	barrier  *barrier
	mu       sync.Mutex
	loops    map[int]*loopDesc
	critical sync.Map // name -> *sync.Mutex
}

type loopDesc struct {
	next     atomic.Int64
	total    int
	chunk    int
	finished atomic.Int64
}

// barrier is a reusable counting barrier.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	size  int
	count int
	gen   int
}

func newBarrier(n int) *barrier {
	b := &barrier{size: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.count++
	if b.count == b.size {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
}

// Context is a thread's view of the enclosing parallel region.
type Context struct {
	id     int
	region *region
	seq    int // per-thread work-sharing construct sequence number
}

// ThreadID returns this thread's id in [0, NumThreads).
func (c *Context) ThreadID() int { return c.id }

// NumThreads returns the region's team width.
func (c *Context) NumThreads() int { return c.region.n }

// Parallel runs body on every team thread and returns when all finish.
// A panic in any thread is re-raised on the caller after the region
// drains (other threads may deadlock on barriers if the panicking thread
// held them; regions are expected to be panic-free in production paths).
func (t *Team) Parallel(body func(tc *Context)) {
	r := &region{
		n:       t.n,
		barrier: newBarrier(t.n),
		loops:   map[int]*loopDesc{},
	}
	var wg sync.WaitGroup
	wg.Add(t.n)
	panics := make(chan any, t.n)
	for i := 0; i < t.n; i++ {
		go func(id int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- p
				}
			}()
			body(&Context{id: id, region: r})
		}(i)
	}
	wg.Wait()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
}

// Barrier blocks until every thread of the region reaches it.
func (c *Context) Barrier() { c.region.barrier.await() }

// Master runs f on thread 0 only, with no implied synchronization — the
// caller must pair it with Barrier, exactly as the paper's Algorithms 2-3
// do around the DLB index fetch.
func (c *Context) Master(f func()) {
	if c.id == 0 {
		f()
	}
}

// Critical runs f under the named region-wide mutex.
func (c *Context) Critical(name string, f func()) {
	muAny, _ := c.region.critical.LoadOrStore(name, &sync.Mutex{})
	mu := muAny.(*sync.Mutex)
	mu.Lock()
	defer mu.Unlock()
	f()
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
		c.seq++
		return
	}
	switch sched.Kind {
	case Static:
		chunk := sched.Chunk
		if chunk <= 0 {
			// Default static: one contiguous block per thread.
			chunk = (n + c.region.n - 1) / c.region.n
		}
		for start := c.id * chunk; start < n; start += c.region.n * chunk {
			end := start + chunk
			if end > n {
				end = n
			}
			for i := start; i < end; i++ {
				body(i)
			}
		}
		c.seq++
	case Dynamic, Guided:
		c.seq++
		desc := c.loopDescriptor(c.seq, n, sched)
		minChunk := sched.Chunk
		if minChunk <= 0 {
			minChunk = 1
		}
		for {
			var lo, hi int
			if sched.Kind == Dynamic {
				lo = int(desc.next.Add(int64(minChunk))) - minChunk
				hi = lo + minChunk
			} else {
				// Guided: take max(remaining/(2T), minChunk).
				for {
					cur := desc.next.Load()
					remaining := int64(n) - cur
					if remaining <= 0 {
						lo, hi = n, n
						break
					}
					take := remaining / int64(2*c.region.n)
					if take < int64(minChunk) {
						take = int64(minChunk)
					}
					if desc.next.CompareAndSwap(cur, cur+take) {
						lo, hi = int(cur), int(cur+take)
						break
					}
				}
			}
			if lo >= n {
				break
			}
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				body(i)
			}
		}
	default:
		panic(fmt.Sprintf("omp: unknown schedule %v", sched.Kind))
	}
}

// loopDescriptor finds or creates the shared descriptor for work-sharing
// construct number key.
func (c *Context) loopDescriptor(key, n int, sched Schedule) *loopDesc {
	r := c.region
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.loops[key]
	if !ok {
		d = &loopDesc{total: n, chunk: sched.Chunk}
		r.loops[key] = d
	}
	return d
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

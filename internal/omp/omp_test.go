package omp

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewTeamValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0 threads")
		}
	}()
	NewTeam(0)
}

func TestParallelRunsAllThreads(t *testing.T) {
	team := NewTeam(7)
	var ran [7]atomic.Bool
	team.Parallel(func(tc *Context) {
		if tc.NumThreads() != 7 {
			t.Errorf("NumThreads = %d", tc.NumThreads())
		}
		ran[tc.ThreadID()].Store(true)
	})
	for i := range ran {
		if !ran[i].Load() {
			t.Fatalf("thread %d never ran", i)
		}
	}
}

func TestBarrier(t *testing.T) {
	team := NewTeam(6)
	var before atomic.Int64
	team.Parallel(func(tc *Context) {
		before.Add(1)
		tc.Barrier()
		if before.Load() != 6 {
			t.Errorf("barrier released early: %d", before.Load())
		}
		tc.Barrier()
	})
}

func TestMasterOnlyThreadZero(t *testing.T) {
	team := NewTeam(5)
	var who atomic.Int64
	who.Store(-1)
	team.Parallel(func(tc *Context) {
		tc.Master(func() { who.Store(int64(tc.ThreadID())) })
		tc.Barrier()
	})
	if who.Load() != 0 {
		t.Fatalf("master ran on thread %d", who.Load())
	}
}

func coverageCheck(t *testing.T, n int, counts []atomic.Int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		if counts[i].Load() != 1 {
			t.Fatalf("iteration %d executed %d times", i, counts[i].Load())
		}
	}
}

func TestForSchedulesCoverEachIterationOnce(t *testing.T) {
	for _, sched := range []Schedule{
		{Kind: Dynamic}, {Kind: Dynamic, Chunk: 1}, {Kind: Dynamic, Chunk: 4},
	} {
		for _, n := range []int{0, 1, 7, 64, 1001} {
			counts := make([]atomic.Int64, n)
			team := NewTeam(6)
			team.Parallel(func(tc *Context) {
				tc.For(n, sched, func(i int) { counts[i].Add(1) })
			})
			coverageCheck(t, n, counts)
		}
	}
}

func TestForImplicitBarrier(t *testing.T) {
	team := NewTeam(4)
	var done atomic.Int64
	team.Parallel(func(tc *Context) {
		tc.For(100, Schedule{Kind: Dynamic}, func(i int) {
			done.Add(1)
		})
		if done.Load() != 100 {
			t.Errorf("For returned before all iterations: %d", done.Load())
		}
	})
}

func TestForRepeatedLoopsNoCrossTalk(t *testing.T) {
	team := NewTeam(5)
	const loops = 30
	counts := make([][]atomic.Int64, loops)
	for l := range counts {
		counts[l] = make([]atomic.Int64, 50)
	}
	team.Parallel(func(tc *Context) {
		for l := 0; l < loops; l++ {
			tc.For(50, Schedule{Kind: Dynamic, Chunk: 1}, func(i int) {
				counts[l][i].Add(1)
			})
		}
	})
	for l := 0; l < loops; l++ {
		coverageCheck(t, 50, counts[l])
	}
}

func TestCollapse2(t *testing.T) {
	team := NewTeam(4)
	n1, n2 := 9, 13
	counts := make([]atomic.Int64, n1*n2)
	team.Parallel(func(tc *Context) {
		tc.Collapse2(n1, n2, Schedule{Kind: Dynamic, Chunk: 1}, func(i1, i2 int) {
			if i1 < 0 || i1 >= n1 || i2 < 0 || i2 >= n2 {
				t.Errorf("out of range: %d %d", i1, i2)
			}
			counts[i1*n2+i2].Add(1)
		})
	})
	coverageCheck(t, n1*n2, counts)
}

func TestStaticRangePartition(t *testing.T) {
	team := NewTeam(3)
	n := 10
	covered := make([]atomic.Int64, n)
	team.Parallel(func(tc *Context) {
		lo, hi := tc.StaticRange(n)
		for i := lo; i < hi; i++ {
			covered[i].Add(1)
		}
	})
	coverageCheck(t, n, covered)
}

func TestStaticRangeSmallN(t *testing.T) {
	team := NewTeam(8)
	covered := make([]atomic.Int64, 3)
	team.Parallel(func(tc *Context) {
		lo, hi := tc.StaticRange(3)
		for i := lo; i < hi; i++ {
			covered[i].Add(1)
		}
	})
	coverageCheck(t, 3, covered)
}

func TestReduceChunked(t *testing.T) {
	team := NewTeam(4)
	n := 57
	target := make([]float64, n)
	buffers := make([][]float64, 4)
	for t2 := range buffers {
		buffers[t2] = make([]float64, n)
		for i := range buffers[t2] {
			buffers[t2][i] = float64(t2 + 1)
		}
	}
	team.Parallel(func(tc *Context) {
		tc.ReduceChunked(target, buffers)
	})
	for i, v := range target {
		if v != 10 { // 1+2+3+4
			t.Fatalf("target[%d] = %v", i, v)
		}
	}
	for t2 := range buffers {
		for i, v := range buffers[t2] {
			if v != 0 {
				t.Fatalf("buffer %d[%d] not zeroed: %v", t2, i, v)
			}
		}
	}
}

func TestParallelPanicPropagates(t *testing.T) {
	team := NewTeam(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate")
		}
	}()
	team.Parallel(func(tc *Context) {
		if tc.ThreadID() == 1 {
			panic("boom")
		}
	})
}

func TestDynamicLoadBalanceSkew(t *testing.T) {
	// With dynamic,1 and a skewed workload a 2-thread team must finish
	// iterations without any thread claiming two copies of the same index;
	// also serves as a smoke test that heavy first iterations don't stall
	// the schedule.
	team := NewTeam(2)
	var total atomic.Int64
	team.Parallel(func(tc *Context) {
		tc.For(40, Schedule{Kind: Dynamic, Chunk: 1}, func(i int) {
			w := 1
			if i == 0 {
				w = 1000
			}
			s := 0
			for k := 0; k < w*100; k++ {
				s += k
			}
			total.Add(int64(1 + s*0))
		})
	})
	if total.Load() != 40 {
		t.Fatalf("total = %d", total.Load())
	}
}

// TestBarrierAndLoopsOversubscribed drives the whole runtime the way a
// 4x4 hybrid run on 2 vCPUs does: 8 threads on 2 Ps, 10,000 barriers
// interleaved with dynamic loops of varying chunk and length
// (0 and 1 included) in ONE region. Every index of every loop is visited
// exactly once — the two alternating loop counters never leak a chunk
// across constructs — and no thread passes a barrier early.
func TestBarrierAndLoopsOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const threads, rounds = 8, 2500 // 4 barriers per round
	scheds := []Schedule{{Kind: Dynamic, Chunk: 1}, {Kind: Dynamic}, {Kind: Dynamic, Chunk: 2}, {Kind: Dynamic, Chunk: 3}}
	lens := []int{0, 1, 2, 7, 8, 33}
	// visits[r] counts the visits to each index of round r's loop; arrived
	// counts the threads past each round's explicit barrier.
	visits := make([][]atomic.Int32, rounds)
	for r := range visits {
		visits[r] = make([]atomic.Int32, lens[r%len(lens)])
	}
	var arrived atomic.Int64
	start := time.Now()
	NewTeam(threads).Parallel(func(tc *Context) {
		for r := 0; r < rounds; r++ {
			n := lens[r%len(lens)]
			tc.For(n, scheds[r%len(scheds)], func(i int) { visits[r][i].Add(1) })
			for i := range visits[r] {
				if v := visits[r][i].Load(); v != 1 {
					t.Errorf("round %d (%v, n=%d): index %d visited %d times after the loop's barrier",
						r, scheds[r%len(scheds)], n, i, v)
				}
			}
			arrived.Add(1)
			tc.Barrier()
			if got := arrived.Load(); got < int64(threads*(r+1)) {
				t.Errorf("round %d: barrier released with %d of %d arrivals", r, got, threads*(r+1))
			}
			tc.Barrier()
			tc.Barrier()
		}
		if tc.Barriers() != 4*rounds {
			t.Errorf("thread %d counted %d barriers, want %d", tc.ThreadID(), tc.Barriers(), 4*rounds)
		}
	})
	if el := time.Since(start); el > 30*time.Second {
		t.Fatalf("10,000 barriers took %v", el)
	}
}

// TestBarrierParkPath makes every waiter exhaust its spin and yield budget:
// one thread sleeps 2 ms before each of 500 barriers, so the others park
// on the cond and must be woken by it. The generation counter starts just
// below its wrap, so the episode numbers cross 2^32 on the way.
func TestBarrierParkPath(t *testing.T) {
	const threads, episodes = 4, 500
	b := newBarrier(threads)
	b.gen.Store(math.MaxUint32 - episodes/2)
	var arrived, sawParked atomic.Int64
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for e := 0; e < episodes; e++ {
				if id == e%threads {
					time.Sleep(2 * time.Millisecond)
					sawParked.Add(int64(b.parked.Load()))
				}
				arrived.Add(1)
				b.await()
				if got := arrived.Load(); got < int64(threads*(e+1)) {
					t.Errorf("episode %d: released with %d of %d arrivals", e, got, threads*(e+1))
				}
			}
		}(id)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("lost wake-up: a waiter never left the barrier")
	}
	if g := b.gen.Load(); g != episodes-episodes/2-1 {
		t.Fatalf("generation = %d after the wrap, want %d", g, episodes-episodes/2-1)
	}
	if p := b.parked.Load(); p != 0 {
		t.Fatalf("%d waiters still counted as parked", p)
	}
	if sawParked.Load() == 0 {
		t.Fatal("no waiter ever parked: the test did not reach the cond")
	}
}

// BenchmarkBarrier is the back-to-back cost of one team barrier.
func BenchmarkBarrier(b *testing.B) {
	NewTeam(2).Parallel(func(tc *Context) {
		for i := 0; i < b.N; i++ {
			tc.Barrier()
		}
	})
}

// BenchmarkBarrierAfterWork is the regime of a Fock task: ~50 µs of work,
// uneven across the team (thread 1 does 20% more), then a barrier. The
// reported time minus the slower thread's work is the barrier's cost.
func BenchmarkBarrierAfterWork(b *testing.B) {
	var sink atomic.Int64
	NewTeam(2).Parallel(func(tc *Context) {
		iters := 125_000 + 25_000*tc.ThreadID()
		for i := 0; i < b.N; i++ {
			s := 0
			for k := 0; k < iters; k++ {
				s += k ^ i
			}
			sink.Add(int64(s))
			tc.Barrier()
		}
	})
}

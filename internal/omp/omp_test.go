package omp

import (
	"sync/atomic"
	"testing"
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

func TestCriticalMutualExclusion(t *testing.T) {
	team := NewTeam(8)
	counter := 0 // deliberately unprotected; Critical must serialize
	team.Parallel(func(tc *Context) {
		for i := 0; i < 200; i++ {
			tc.Critical("ctr", func() { counter++ })
		}
	})
	if counter != 8*200 {
		t.Fatalf("counter = %d want %d", counter, 8*200)
	}
}

func TestCriticalDistinctNamesIndependent(t *testing.T) {
	team := NewTeam(4)
	var a, b int
	team.Parallel(func(tc *Context) {
		tc.Critical("a", func() { a++ })
		tc.Critical("b", func() { b++ })
	})
	if a != 4 || b != 4 {
		t.Fatalf("a=%d b=%d", a, b)
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
		{Kind: Static}, {Kind: Static, Chunk: 3},
		{Kind: Dynamic}, {Kind: Dynamic, Chunk: 4},
		{Kind: Guided}, {Kind: Guided, Chunk: 2},
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

func TestScheduleString(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" || Guided.String() != "guided" {
		t.Fatal("schedule names wrong")
	}
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

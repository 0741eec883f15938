package ddi

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mpi"
)

// leaseRecorder collects which rank completed which task, and asserts
// exactly-once coverage of [0, total).
type leaseRecorder struct {
	mu   sync.Mutex
	who  map[int]int // task -> completing rank
	dups int
}

func newLeaseRecorder() *leaseRecorder { return &leaseRecorder{who: map[int]int{}} }

func (r *leaseRecorder) record(rank, idx int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.who[idx]; dup {
		r.dups++
	}
	r.who[idx] = rank
}

func (r *leaseRecorder) assertExactlyOnce(t *testing.T, total int) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dups != 0 {
		t.Fatalf("%d tasks completed more than once", r.dups)
	}
	if len(r.who) != total {
		t.Fatalf("%d of %d tasks completed", len(r.who), total)
	}
}

// commitOwn commits a task this rank drew itself, the way the resilient
// Fock builder does: Reserve, (push), Finish. False means another rank
// won the commit and the result must be dropped.
func commitOwn(l *LeaseDLB, idx int) bool {
	if !l.Reserve(idx, l.ctx.Comm.Rank()) {
		return false
	}
	l.Finish(idx)
	return true
}

// drain runs this rank's share of the cycle through Drain without
// hedging, recording every task whose commit this rank won.
func drain(l *LeaseDLB, chunk int, rec *leaseRecorder) Drained {
	return l.Drain(chunk, false, func(idx, owner int) {
		if l.Reserve(idx, owner) {
			rec.record(l.ctx.Comm.Rank(), idx) // "push the contribution"
			l.Finish(idx)
		}
	}, nil)
}

// TestLeaseExactlyOnceNoFailure: the lease cycle degenerates to plain
// dlbnext semantics when nobody dies.
func TestLeaseExactlyOnceNoFailure(t *testing.T) {
	const total = 200
	rec := newLeaseRecorder()
	_, err := mpi.RunWithOptions(4, mpi.RunOptions{Deadline: 10 * time.Second}, func(c *mpi.Comm) {
		drain(New(c).NewLeaseDLB(total), 1, rec)
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.assertExactlyOnce(t, total)
}

// TestLeaseExactlyOnceUnderRankDeath is the tentpole's DLB acceptance
// test: a rank dies holding two unpushed leases; survivors re-issue them
// and the cycle still completes with every task processed exactly once —
// no lost and no duplicated work.
func TestLeaseExactlyOnceUnderRankDeath(t *testing.T) {
	const total = 25
	rec := newLeaseRecorder()
	var stolen atomic.Int64
	rep, err := mpi.RunWithOptions(4, mpi.RunOptions{
		Deadline: 5 * time.Second,
		// The victim's third cursor draw kills it, leaving its first two
		// tasks leased (claimed, never completed).
		Fault: &mpi.FaultPlan{Kills: []mpi.Kill{{Rank: 1, Site: mpi.SiteDLB, After: 3}}},
	}, func(c *mpi.Comm) {
		l := New(c).NewLeaseDLB(total)
		if c.Rank() == 1 {
			l.DrawChunk(nil, 1)
			l.DrawChunk(nil, 1)
			l.DrawChunk(nil, 1) // killed here, before the draw lands
			t.Error("victim survived its own kill")
			return
		}
		// Survivors wait for the death so the victim is guaranteed to
		// hold leases when the cursor race starts.
		for len(c.FailedRanks()) == 0 {
			time.Sleep(time.Millisecond)
		}
		stolen.Add(drain(l, 1, rec).Stolen)
	})
	if !errors.Is(err, mpi.ErrRankFailed) {
		t.Fatalf("want ErrRankFailed, got %v", err)
	}
	if got := rep.DeadRanks(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("DeadRanks = %v, want [1]", got)
	}
	rec.assertExactlyOnce(t, total)
	if got := stolen.Load(); got != 2 {
		t.Fatalf("survivors stole %d leases, want the victim's 2", got)
	}
	// The two orphaned leases must have been completed by survivors.
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for idx, rank := range rec.who {
		if rank == 1 {
			t.Fatalf("task %d recorded by the dead rank", idx)
		}
	}
}

// TestLeaseStealsUnclaimedDraw covers the draw/claim gap: a rank that
// dies after drawing an index but before claiming it leaves a free slot
// behind the cursor; Steal must re-issue it.
func TestLeaseStealsUnclaimedDraw(t *testing.T) {
	const total = 10
	rec := newLeaseRecorder()
	_, err := mpi.RunWithOptions(2, mpi.RunOptions{Deadline: 5 * time.Second}, func(c *mpi.Comm) {
		l := New(c).NewLeaseDLB(total)
		if c.Rank() == 1 {
			// Simulate death in the gap: draw the cursor directly (as
			// DrawChunk would), then die before the claim CAS.
			l.cur.FetchAdd(0, 1)
			panic("died between draw and claim")
		}
		for len(c.FailedRanks()) == 0 {
			time.Sleep(time.Millisecond)
		}
		drain(l, 1, rec)
	})
	if !errors.Is(err, mpi.ErrRankFailed) {
		t.Fatalf("want ErrRankFailed, got %v", err)
	}
	rec.assertExactlyOnce(t, total)
}

// TestLeaseDrawPastLostChunk: a drawn chunk whose every claim went to a
// concurrent Steal comes back empty while the cursor still holds tasks.
// That is not exhaustion: the draw phase must go on and draw the rest,
// not fall through to a re-issue loop with nothing to steal.
func TestLeaseDrawPastLostChunk(t *testing.T) {
	const total, chunk = 4, 2
	rec := newLeaseRecorder()
	_, err := mpi.RunWithOptions(1, mpi.RunOptions{Deadline: 2 * time.Second}, func(c *mpi.Comm) {
		l := New(c).NewLeaseDLB(total)
		// The first chunk's slots were stolen and committed between this
		// rank's fetch-and-add and its claims.
		for i := 0; i < chunk; i++ {
			l.state.Store(i, leaseDone)
		}
		if got := drain(l, chunk, rec); got != (Drained{Drawn: total - chunk}) {
			t.Errorf("Drain = %+v, want the cursor's last %d tasks drawn and nothing re-issued", got, total-chunk)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.assertExactlyOnce(t, total-chunk)
}

// TestDLBResetWraparoundExactlyOnce is the satellite-3 stress test: >32
// DLB cycles force the epoch%32 slot reuse, and after each reuse the
// counter must still hand out every index exactly once per cycle. Run
// under -race this also audits the reset/draw synchronization.
func TestDLBResetWraparoundExactlyOnce(t *testing.T) {
	const size, cycles, total = 4, 40, 64
	var mu sync.Mutex
	perCycle := make([]map[int64]int, cycles)
	for i := range perCycle {
		perCycle[i] = map[int64]int{}
	}
	err := mpi.Run(size, func(c *mpi.Comm) {
		d := New(c)
		for e := 0; e < cycles; e++ {
			d.DLBReset()
			for {
				v := d.DLBNext()
				if v >= total {
					break
				}
				mu.Lock()
				perCycle[e][v]++
				mu.Unlock()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for e, got := range perCycle {
		if len(got) != total {
			t.Fatalf("cycle %d: %d of %d indices handed out (slot reuse lost work)", e, len(got), total)
		}
		for v, n := range got {
			if n != 1 {
				t.Fatalf("cycle %d: index %d handed out %d times after slot reuse", e, v, n)
			}
		}
	}
}

// heapKept is the heap in use after a full collection.
func heapKept() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestLeaseCyclesAreCollected: once both ranks have created a cycle's
// windows the world lets go of them, so 1000 NewLeaseDLB(1000) cycles
// on one 2-rank world (24 MB of lease tables in all) keep no more heap
// than 10 cycles do.
func TestLeaseCyclesAreCollected(t *testing.T) {
	kept := func(cycles int) uint64 {
		var inUse uint64
		err := mpi.Run(2, func(c *mpi.Comm) {
			d := New(c)
			for range cycles {
				d.NewLeaseDLB(1000)
			}
			c.Barrier()
			if c.Rank() == 0 {
				inUse = heapKept()
			}
			c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return inUse
	}
	few, many := kept(10), kept(1000)
	if many > few+1<<20 {
		t.Errorf("1000 lease cycles keep %d bytes of heap, 10 cycles %d: %d more, want at most 1 MiB",
			many, few, many-few)
	}
}

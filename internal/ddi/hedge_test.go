package ddi

// Tests for the straggler-mitigation half of the lease table: hedged
// (speculative) re-issue with first-writer-wins commit, TTL-based early
// lease expiry, chunked draws, and the straggler detector bridge. The
// headline property here is the DLB half of the chaos satellite: no
// schedule of concurrent hedged commits ever double-fires a lease.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// TestLeaseHedgeNeverDoubleFires is the property test for first-writer-
// wins dedup: rank 0 leases EVERY task, then all ranks race to commit —
// rank 0 through its own leases, the others through hedged speculative
// recomputes. However the CAS races interleave, every task must be
// committed exactly once, and the duplicate-drop count must equal the
// hedge count (each hedged task produced exactly one loser). Every rank
// holds its commits until each hedger owns the hedge rights of one task,
// so the race the test is about always happens: without that, rank 0 can
// finish all 64 commits before a hedger is first scheduled.
func TestLeaseHedgeNeverDoubleFires(t *testing.T) {
	const ranks, total = 4, 64
	rec := newLeaseRecorder()
	tel := telemetry.NewSession()
	var firstHedge sync.WaitGroup
	firstHedge.Add(ranks - 1)
	_, err := mpi.RunWithOptions(ranks, mpi.RunOptions{
		Deadline:  10 * time.Second,
		Telemetry: tel,
	}, func(c *mpi.Comm) {
		l := New(c).NewLeaseDLB(total)
		var mine []int
		if c.Rank() == 0 {
			mine, _ = l.DrawChunk(nil, total)
			if len(mine) != total {
				t.Errorf("DrawChunk claimed %d of %d", len(mine), total)
			}
		}
		c.Barrier() // hedgers start only once every task is leased by rank 0
		if c.Rank() == 0 {
			firstHedge.Wait()
			for _, idx := range mine {
				if l.Reserve(idx, 0) {
					rec.record(0, idx) // "push"
					l.Finish(idx)
				}
			}
		} else {
			for n := 0; ; n++ {
				idx, owner, ok := l.Hedge([]int{0})
				if n == 0 {
					if !ok {
						t.Errorf("rank %d: nothing to hedge while rank 0 holds all %d leases", c.Rank(), total)
					}
					firstHedge.Done()
					firstHedge.Wait() // or the first hedger scheduled takes all 64
				}
				if !ok {
					break
				}
				if owner != 0 {
					t.Errorf("hedged owner = %d, want 0", owner)
				}
				if l.Reserve(idx, owner) {
					rec.record(c.Rank(), idx) // speculative "push" won
					l.Finish(idx)
				}
			}
		}
		c.Barrier()
		if !l.AllComplete() {
			t.Errorf("rank %d: tasks left undone after all commit races settled", c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.assertExactlyOnce(t, total)
	hedged := tel.Counter("dlb.hedged").Value()
	dropped := tel.Counter("dlb.dedup_dropped").Value()
	if hedged == 0 {
		t.Fatal("no task was ever hedged")
	}
	// Every Reserve attempt is either the unique winner or a dropped
	// duplicate: total attempts = total (owner) + hedged (speculative),
	// total wins = total, so drops must equal hedges exactly.
	if dropped != hedged {
		t.Fatalf("dlb.dedup_dropped = %d, want %d (= dlb.hedged): a lease double-fired or a loser was not dropped", dropped, hedged)
	}
	if got := tel.Counter("dlb.reissued").Value(); got != hedged {
		t.Fatalf("dlb.reissued = %d, want %d", got, hedged)
	}
}

// TestLeaseExpiredReclaim covers deadline-based early lease expiry: a
// lease held past the TTL (half the run's deadline) by a slow but living
// rank is reclaimed and committed by a peer's drain, and the original
// owner's late commit loses the race and is deduplicated.
func TestLeaseExpiredReclaim(t *testing.T) {
	const total = 3
	rec := newLeaseRecorder()
	tel := telemetry.NewSession()
	var expired int64
	_, err := mpi.RunWithOptions(2, mpi.RunOptions{
		Deadline:  time.Second, // lease TTL = 500ms
		Telemetry: tel,
	}, func(c *mpi.Comm) {
		l := New(c).NewLeaseDLB(total)
		if c.Rank() == 1 {
			idxs, _ := l.DrawChunk(nil, 1)
			if len(idxs) != 1 {
				t.Error("rank 1 drew nothing")
				return
			}
			c.Barrier()
			time.Sleep(1200 * time.Millisecond) // unresponsive, not dead
			if commitOwn(l, idxs[0]) {
				t.Error("stale owner's late commit won despite TTL expiry")
			}
			return
		}
		c.Barrier()
		expired = drain(l, 1, rec).Expired
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.assertExactlyOnce(t, total)
	if expired != 1 {
		t.Fatalf("rank 0 drained %d expired leases, want 1", expired)
	}
	if got := tel.Counter("ddi.lease.expired").Value(); got != 1 {
		t.Fatalf("ddi.lease.expired = %d, want 1", got)
	}
	if got := tel.Counter("dlb.reissued").Value(); got != 1 {
		t.Fatalf("dlb.reissued = %d, want 1", got)
	}
	// The sleeper's failed commit is a dropped duplicate.
	if got := tel.Counter("dlb.dedup_dropped").Value(); got != 1 {
		t.Fatalf("dlb.dedup_dropped = %d, want 1", got)
	}
}

// TestLeaseExpiredDisabled: a zero TTL must never reclaim anything.
func TestLeaseExpiredDisabled(t *testing.T) {
	_, err := mpi.RunWithOptions(2, mpi.RunOptions{Deadline: 5 * time.Second}, func(c *mpi.Comm) {
		l := New(c).NewLeaseDLB(2)
		if c.Rank() == 1 {
			idxs, _ := l.DrawChunk(nil, 1)
			c.Barrier()
			c.Barrier()
			if !commitOwn(l, idxs[0]) {
				t.Error("own commit failed with expiry disabled")
			}
			return
		}
		c.Barrier()
		if idx, ok := l.Expired(0); ok {
			t.Errorf("Expired(0) reclaimed task %d", idx)
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStragglerBridge drives the telemetry bridge end to end: ranks
// publish task latencies through the shared window, and every rank's
// detector read agrees on which rank is slow.
func TestStragglerBridge(t *testing.T) {
	const ranks, slow = 4, 2
	var mu sync.Mutex
	flagged := make(map[int][]int)
	err := mpi.Run(ranks, func(c *mpi.Comm) {
		dx := New(c)
		lat := 10 * time.Millisecond
		if c.Rank() == slow {
			lat = 80 * time.Millisecond
		}
		for i := 0; i < 4; i++ {
			dx.ObserveTaskLatency(lat)
		}
		c.Barrier()
		got := dx.Stragglers(2, 3)
		mu.Lock()
		flagged[c.Rank()] = got
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		if len(flagged[r]) != 1 || flagged[r][0] != slow {
			t.Fatalf("rank %d flagged %v, want [%d]", r, flagged[r], slow)
		}
	}
}

package mpi

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestKillAtBarrierUnwindsPeers kills one rank entering its second
// barrier; every surviving rank must observe the failure and unwind
// (satellite: poison must reach barrier waiters) instead of deadlocking.
func TestKillAtBarrierUnwindsPeers(t *testing.T) {
	const n = 4
	rep, err := RunWithOptions(n, RunOptions{
		Deadline: 2 * time.Second,
		Fault:    &FaultPlan{Kills: []Kill{{Rank: 1, Site: SiteBarrier, After: 2}}},
	}, func(c *Comm) {
		c.Barrier()
		c.Barrier() // rank 1 dies entering this one; peers block here
		c.Barrier()
	})
	if !errors.Is(err, ErrRankFailed) {
		t.Fatalf("want ErrRankFailed, got %v", err)
	}
	if len(rep.Failures) == 0 || rep.Failures[0].Rank != 1 || rep.Failures[0].Kind != KindKilled {
		t.Fatalf("bad failures: %+v", rep.Failures)
	}
	if got := rep.DeadRanks(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("DeadRanks = %v, want [1]", got)
	}
	if len(rep.Unwound) != n-1 {
		t.Fatalf("Unwound = %v, want the other %d ranks", rep.Unwound, n-1)
	}
	if len(rep.Abandoned) != 0 {
		t.Fatalf("Abandoned = %v, want none", rep.Abandoned)
	}
}

// TestRecvUnwindsOnPeerDeath is the satellite-1 regression: before the
// fix, poison only woke Barrier waiters, so a receiver blocked on a dead
// peer hung forever. No deadline here — the poison broadcast alone must
// unwind the receiver.
func TestRecvUnwindsOnPeerDeath(t *testing.T) {
	doneCh := make(chan error, 1)
	go func() {
		doneCh <- Run(2, func(c *Comm) {
			if c.Rank() == 1 {
				panic("rank 1 dies before sending")
			}
			c.Recv(1, 7) // would block forever without mailbox poison
		})
	}()
	select {
	case err := <-doneCh:
		if !errors.Is(err, ErrRankFailed) {
			t.Fatalf("want ErrRankFailed, got %v", err)
		}
		if !strings.Contains(err.Error(), "rank 1 dies before sending") {
			t.Fatalf("error should carry the panic cause, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not unwind after peer death (mailbox not poisoned)")
	}
}

// TestPeerDeathReturnsTypedError: a receiver unwound by peer death surfaces
// from Run as a typed *RankFailure naming the dead rank, for callers that
// handle the loss themselves (shrink, restart) instead of just failing.
func TestPeerDeathReturnsTypedError(t *testing.T) {
	err := Run(2, func(c *Comm) {
		if c.Rank() == 1 {
			panic("peer death")
		}
		c.Recv(1, 3)
	})
	var rf *RankFailure
	if !errors.As(err, &rf) || !errors.Is(err, ErrRankFailed) {
		t.Fatalf("Run = %v, want a *RankFailure matching ErrRankFailed", err)
	}
	if rf.Rank != 1 {
		t.Fatalf("failure names rank %d, want the dead rank 1", rf.Rank)
	}
}

// TestDeadlineConvertsHangToTimeout: a receive that can never be matched
// (the peer completes without sending) must unwind with ErrTimeout within
// the deadline instead of hanging.
func TestDeadlineConvertsHangToTimeout(t *testing.T) {
	start := time.Now()
	rep, err := RunWithOptions(2, RunOptions{Deadline: 80 * time.Millisecond}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Recv(1, 5) // rank 1 never sends
		}
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("timeout took %v, deadline not enforced", el)
	}
	if len(rep.Failures) == 0 || rep.Failures[0].Kind != KindTimeout || rep.Failures[0].Rank != 0 {
		t.Fatalf("bad failures: %+v", rep.Failures)
	}
	// A timed-out waiter is healthy — it gave up on a stuck peer; nobody
	// is actually dead in this run.
	if got := rep.DeadRanks(); len(got) != 0 {
		t.Fatalf("DeadRanks = %v, want none", got)
	}
}

// TestDelayedRankTimesOutBarrier: an injected delay models a wedged peer;
// the waiting rank must time out at the barrier, and the delayed rank —
// once it wakes into the poisoned world — must unwind, not be abandoned.
func TestDelayedRankTimesOutBarrier(t *testing.T) {
	rep, err := RunWithOptions(2, RunOptions{
		Deadline: 60 * time.Millisecond,
		Fault:    &FaultPlan{Delays: []Delay{{Rank: 1, Site: SiteBarrier, After: 1, Sleep: 300 * time.Millisecond}}},
	}, func(c *Comm) {
		c.Barrier()
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if len(rep.Failures) == 0 || rep.Failures[0].Rank != 0 || rep.Failures[0].Site != "barrier" {
		t.Fatalf("bad failures: %+v", rep.Failures)
	}
	// Rank 1 slept through the poison, then entered the poisoned barrier
	// and unwound cleanly within the grace period.
	if len(rep.Unwound) != 1 || rep.Unwound[0] != 1 {
		t.Fatalf("Unwound = %v, want [1]", rep.Unwound)
	}
	if len(rep.Abandoned) != 0 {
		t.Fatalf("Abandoned = %v, want none", rep.Abandoned)
	}
}

// TestStuckRankIsAbandonedAndFenced: a rank wedged longer than the grace
// period is abandoned (the run returns without it) and fenced so its
// late window mutations cannot corrupt survivor state.
func TestStuckRankIsAbandonedAndFenced(t *testing.T) {
	var mu sync.Mutex
	var lateFenced bool
	wedged := make(chan struct{})
	rep, err := RunWithOptions(2, RunOptions{
		Deadline: 50 * time.Millisecond,
		Fault:    &FaultPlan{Delays: []Delay{{Rank: 1, Site: SiteSend, After: 1, Sleep: 900 * time.Millisecond}}},
	}, func(c *Comm) {
		w := c.WinCreate(0, 1)
		if c.Rank() == 0 {
			c.Recv(1, 1) // times out: rank 1 is asleep in its send hook
			return
		}
		defer func() {
			// After waking, the fenced rank's window ops must refuse.
			if r := recover(); r != nil {
				if _, ok := r.(failurePanic); ok {
					mu.Lock()
					lateFenced = true
					mu.Unlock()
				}
				close(wedged)
				panic(r)
			}
			close(wedged)
		}()
		c.Send(0, 1, []float64{1})
		w.FetchAdd(0, 1)
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if len(rep.Abandoned) != 1 || rep.Abandoned[0] != 1 {
		t.Fatalf("Abandoned = %v, want [1]", rep.Abandoned)
	}
	if got := rep.DeadRanks(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("DeadRanks = %v, want [1] (the abandoned rank)", got)
	}
	// Wait for the wedged goroutine to wake and hit the fence.
	select {
	case <-wedged:
	case <-time.After(5 * time.Second):
		t.Fatal("wedged rank never woke")
	}
	mu.Lock()
	defer mu.Unlock()
	if !lateFenced {
		t.Fatal("late window op by abandoned rank was not fenced")
	}
}

// TestKillAtDLBDrawFiresBeforeTheAdd: a rank killed at its Nth DLB draw
// must die BEFORE consuming the index, so no task index is silently lost
// with it.
func TestKillAtDLBDrawFiresBeforeTheAdd(t *testing.T) {
	var mu sync.Mutex
	draws := map[int][]int64{}
	rep, err := RunWithOptions(2, RunOptions{
		Deadline: 2 * time.Second,
		Fault:    &FaultPlan{Kills: []Kill{{Rank: 1, Site: SiteDLB, After: 3}}},
	}, func(c *Comm) {
		dlb := c.WinCreate(0, 1)
		if c.Rank() == 1 {
			for i := 0; i < 5; i++ { // third hit kills before the add
				v := dlb.FetchAdd(0, 1)
				mu.Lock()
				draws[1] = append(draws[1], v)
				mu.Unlock()
			}
			return
		}
		// Rank 0 waits for the failure, then drains the counter.
		for len(c.FailedRanks()) == 0 {
			time.Sleep(time.Millisecond)
		}
		for i := 0; i < 10; i++ {
			v := dlb.FetchAdd(0, 1)
			mu.Lock()
			draws[0] = append(draws[0], v)
			mu.Unlock()
		}
	})
	if !errors.Is(err, ErrRankFailed) {
		t.Fatalf("want ErrRankFailed, got %v", err)
	}
	if got := len(draws[1]); got != 2 {
		t.Fatalf("killed rank recorded %d draws, want 2 (third kill fires before the add)", got)
	}
	// Every drawn index is unique and the union is contiguous: nothing
	// was consumed by the dead rank and lost.
	seen := map[int64]bool{}
	var max int64 = -1
	for _, ds := range draws {
		for _, v := range ds {
			if seen[v] {
				t.Fatalf("index %d drawn twice", v)
			}
			seen[v] = true
			if v > max {
				max = v
			}
		}
	}
	if int64(len(seen)) != max+1 {
		t.Fatalf("drawn indices not contiguous: %d seen, max %d", len(seen), max)
	}
	if rep.Failures[0].Site != "dlb #3" {
		t.Fatalf("failure site = %q, want dlb #3", rep.Failures[0].Site)
	}
}

// TestKillDuringCollectiveUnwinds: collectives are built on send/recv, so
// a kill at a send mid-Allreduce must unwind every participant.
func TestKillDuringCollectiveUnwinds(t *testing.T) {
	_, err := RunWithOptions(4, RunOptions{
		Deadline: 2 * time.Second,
		Fault:    &FaultPlan{Kills: []Kill{{Rank: 2, Site: SiteSend, After: 1}}},
	}, func(c *Comm) {
		buf := []float64{float64(c.Rank())}
		c.AllreduceSumInPlace(buf)
	})
	if !errors.Is(err, ErrRankFailed) {
		t.Fatalf("want ErrRankFailed, got %v", err)
	}
}

// TestCleanRunReport: a failure-free run reports every rank completed.
func TestCleanRunReport(t *testing.T) {
	rep, err := RunWithOptions(3, RunOptions{Deadline: time.Second}, func(c *Comm) {
		c.Barrier()
		buf := []float64{1}
		c.AllreduceSumInPlace(buf)
	})
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	if rep.Err != nil || len(rep.Completed) != 3 || len(rep.Failures) != 0 {
		t.Fatalf("bad report: %+v", rep)
	}
}

// TestFailedRanksQueryDuringRun: survivors can query who died (to steal
// their leases) while still inside the run.
func TestFailedRanksQueryDuringRun(t *testing.T) {
	var mu sync.Mutex
	var observed []int
	_, err := RunWithOptions(3, RunOptions{
		Deadline: 2 * time.Second,
		Fault:    &FaultPlan{Kills: []Kill{{Rank: 2, Site: SiteDLB, After: 1}}},
	}, func(c *Comm) {
		dlb := c.WinCreate(0, 1)
		if c.Rank() == 2 {
			dlb.FetchAdd(0, 1) // dies here
			return
		}
		// Survivors poll until the failure is visible.
		deadline := time.Now().Add(2 * time.Second)
		for len(c.FailedRanks()) == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		mu.Lock()
		observed = append(observed, c.FailedRanks()...)
		mu.Unlock()
	})
	if !errors.Is(err, ErrRankFailed) {
		t.Fatalf("want ErrRankFailed, got %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(observed) != 2 || observed[0] != 2 || observed[1] != 2 {
		t.Fatalf("FailedRanks observed = %v, want [2 2] (both survivors saw rank 2)", observed)
	}
}

// TestInjectedNamesFollowSites: each FaultSite's sdc.injected counter,
// resolved from the name table when a world starts, is named after the
// site.
func TestInjectedNamesFollowSites(t *testing.T) {
	for _, s := range []FaultSite{SiteBarrier, SiteSend, SiteRecv, SiteDLB, SiteFock, SiteCheckpoint, SitePurify} {
		if got, want := injectedNames[siteIndex(s)], "sdc.injected."+string(s); got != want {
			t.Errorf("site %s counts into %q, want %q", s, got, want)
		}
	}
}

package mpi

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWinCreateMatchesByCallOrder: the k-th creation on every rank is the
// same window, with no barrier between creation and use, and a window
// holds exactly the slots it was created with — a 100-counter window
// carries a store into its last slot on every rank.
func TestWinCreateMatchesByCallOrder(t *testing.T) {
	const ranks, slots = 3, 100
	err := Run(ranks, func(c *Comm) {
		a := c.WinCreate(0, slots)
		b := c.WinCreate(4, 0)
		a.Store(slots-1-c.Rank(), int64(c.Rank()+1))
		b.Acc(0, []float64{1, 2, 3, 4})
		c.Barrier()
		for r := 0; r < ranks; r++ {
			if got := a.Load(slots - 1 - r); got != int64(r+1) {
				t.Errorf("rank %d reads slot %d = %d, want %d", c.Rank(), slots-1-r, got, r+1)
			}
		}
		out := make([]float64, 4)
		b.Get(0, out)
		if out[3] != 4*ranks {
			t.Errorf("rank %d reads accumulated %v, want %d in the last slot", c.Rank(), out, 4*ranks)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWinCreateSizeMismatchFailsLoudly: a rank that asks for another
// shape at the same creation ordinal ends the run with a typed
// RankFailure naming it, and the window keeps the first creator's shape
// and contents.
func TestWinCreateSizeMismatchFailsLoudly(t *testing.T) {
	created := make(chan struct{})
	var first *Win
	rep, err := RunWithOptions(2, RunOptions{Deadline: 2 * time.Second}, func(c *Comm) {
		if c.Rank() == 0 {
			first = c.WinCreate(4, 0)
			first.Put(0, []float64{1, 2, 3, 4})
			close(created)
			return
		}
		<-created
		c.WinCreate(8, 0)
		t.Error("a mismatched creation returned a handle")
	})
	var rf *RankFailure
	if !errors.As(err, &rf) || !errors.Is(err, ErrRankFailed) {
		t.Fatalf("want a RankFailure, got %v", err)
	}
	if rf.Rank != 1 || rf.Kind != KindPanic || !strings.Contains(rf.Error(), "8 floats") {
		t.Fatalf("failure = %+v, want rank 1 panicking on its 8-float creation", rf)
	}
	if len(rep.Completed) != 1 || rep.Completed[0] != 0 {
		t.Fatalf("Completed = %v, want [0]", rep.Completed)
	}
	got := first.Local()
	if len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Fatalf("window after the mismatch = %v, want [1 2 3 4]", got)
	}
}

// TestWinFreedWhenTheLastRankLackingItDies: a window that every rank but
// one has created is let go when that one rank dies before creating it;
// the world does not keep it until it ends.
func TestWinFreedWhenTheLastRankLackingItDies(t *testing.T) {
	var world *World
	var created sync.WaitGroup
	created.Add(2)
	plan := &FaultPlan{Kills: []Kill{{Rank: 2, Site: SiteSend, After: 1}}}
	rep, err := RunWithOptions(3, RunOptions{Deadline: 2 * time.Second, Fault: plan}, func(c *Comm) {
		if c.Rank() != 2 {
			c.WinCreate(4, 1)
			created.Done()
			return
		}
		world = c.world
		created.Wait()
		c.Send(0, 0, []float64{1}) // killed here, before its creation
		c.WinCreate(4, 1)
		t.Error("rank 2 outlived its kill")
	})
	if !errors.Is(err, ErrRankFailed) || len(rep.Failures) != 1 || rep.Failures[0].Kind != KindKilled {
		t.Fatalf("want rank 2 killed, got %v (failures %+v)", err, rep.Failures)
	}
	world.winMu.Lock()
	defer world.winMu.Unlock()
	if len(world.wins) != 0 {
		t.Fatalf("the world still holds windows %v after the last rank lacking them died", world.wins)
	}
}

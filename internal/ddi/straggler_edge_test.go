package ddi

// Straggler-detector edge cases: every case here is a world where
// flagging ANY rank would be wrong, and a false positive is expensive —
// under the elastic runtime a flagged rank triggers a migration restart.
// A healthy uniform world, a world still inside the EWMA warm-up, and a
// single surviving rank must all flag nothing.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
)

// collectFlags runs a world of the given size where every rank observes
// its per-rank latency sequence, then reads the detector back on every
// rank.
func collectFlags(t *testing.T, ranks int, latency func(rank int) []time.Duration,
	k float64, minSamples int64) map[int][]int {
	t.Helper()
	var mu sync.Mutex
	flagged := make(map[int][]int)
	err := mpi.Run(ranks, func(c *mpi.Comm) {
		dx := New(c)
		for _, lat := range latency(c.Rank()) {
			dx.ObserveTaskLatency(lat)
		}
		c.Barrier()
		got := dx.Stragglers(k, minSamples)
		mu.Lock()
		flagged[c.Rank()] = got
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	return flagged
}

// TestStragglerAllEqualFlagsNothing: a perfectly uniform world has no
// straggler — every EWMA equals the median exactly, and k·median must
// not flag it.
func TestStragglerAllEqualFlagsNothing(t *testing.T) {
	const ranks = 4
	uniform := func(int) []time.Duration {
		return []time.Duration{10 * time.Millisecond, 10 * time.Millisecond,
			10 * time.Millisecond, 10 * time.Millisecond}
	}
	for rank, got := range collectFlags(t, ranks, uniform, 2, 3) {
		if len(got) != 0 {
			t.Fatalf("rank %d flagged %v in a uniform world", rank, got)
		}
	}
}

// TestStragglerBelowWarmupFlagsNothing: with fewer samples than the
// EWMA warm-up floor, even a rank publishing 100× latencies is noise,
// not signal — one cold-cache task must not trigger a migration.
func TestStragglerBelowWarmupFlagsNothing(t *testing.T) {
	const ranks = 4
	warmup := func(rank int) []time.Duration {
		lat := time.Millisecond
		if rank == 1 {
			lat = 100 * time.Millisecond
		}
		return []time.Duration{lat, lat} // 2 samples < minSamples 3
	}
	for rank, got := range collectFlags(t, ranks, warmup, 2, 3) {
		if len(got) != 0 {
			t.Fatalf("rank %d flagged %v inside the warm-up window", rank, got)
		}
	}
}

// TestStragglerSingleRankFlagsNothing: a single surviving rank has no
// peers to be slower than; the detector needs at least two qualified
// ranks before a median is meaningful.
func TestStragglerSingleRankFlagsNothing(t *testing.T) {
	slowAlone := func(int) []time.Duration {
		return []time.Duration{50 * time.Millisecond, 60 * time.Millisecond,
			70 * time.Millisecond, 80 * time.Millisecond}
	}
	for rank, got := range collectFlags(t, 1, slowAlone, 2, 3) {
		if len(got) != 0 {
			t.Fatalf("rank %d flagged %v with no peers", rank, got)
		}
	}
}

// TestStragglerFreshContextReadsFreshWindow: every context owns its own
// straggler window, so a fresh context — what each new world (an elastic
// epoch, a salvage resume) starts with — reads no samples, and a rank
// that was slow before a migration starts with a clean slate.
func TestStragglerFreshContextReadsFreshWindow(t *testing.T) {
	const ranks, slow = 4, 1
	var mu sync.Mutex
	before := make(map[int][]int)
	after := make(map[int][]int)
	err := mpi.Run(ranks, func(c *mpi.Comm) {
		dx := New(c)
		lat := 5 * time.Millisecond
		if c.Rank() == slow {
			lat = 100 * time.Millisecond
		}
		for i := 0; i < 4; i++ {
			dx.ObserveTaskLatency(lat)
		}
		c.Barrier()
		got := dx.Stragglers(2, 3)
		mu.Lock()
		before[c.Rank()] = got
		mu.Unlock()
		c.Barrier()

		fresh := New(c)
		got = fresh.Stragglers(2, 3)
		mu.Lock()
		after[c.Rank()] = got
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		if len(before[r]) != 1 || before[r][0] != slow {
			t.Fatalf("first context: rank %d flagged %v, want [%d]", r, before[r], slow)
		}
		if len(after[r]) != 0 {
			t.Fatalf("fresh context: rank %d still flags %v from the first context's window", r, after[r])
		}
	}
}

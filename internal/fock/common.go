// Package fock implements the paper's core contribution: construction of
// the two-electron Fock matrix from ERIs under Cauchy-Schwarz screening.
// One quartet walker (walker.go) and one n-channel digest (digest.go) do
// the work; the builds are presets that choose a task space, a scheduler
// and a sink around them:
//
//   - Serial reference — every ij task in order on one thread
//   - Algorithm 1: MPI-only (stock GAMESS) — everything replicated per rank
//   - Algorithm 2: hybrid, shared density / thread-private Fock
//   - Algorithm 3: hybrid, shared density / shared Fock with per-thread
//     FI/FJ column buffers and chunked flush reductions
//   - Resilient (lease DLB, one-sided commits) and Tiled (distributed D
//     and F)
//
// Every density and Fock accumulator of a replicated build is stored
// shell-blocked (blocking, digest.go): the digest reads its density
// blocks as slices and adds each symmetry-unique contribution once, in
// place, into the accumulator G at the block it names, on whichever side
// of the diagonal that lies. A build closes with F = G + Gᵀ (finalize).
package fock

import (
	"math"

	"repro/internal/integrals"
	"repro/internal/omp"
)

// DefaultTau is the Schwarz screening threshold of every parallel build
// and of the paper-scale workloads (GAMESS's default integral cutoff is
// 1e-9; a tighter value keeps the small-molecule validation exact).
const DefaultTau = 1e-10

// Config controls a parallel Fock build.
type Config struct {
	// Threads is the OpenMP team width per MPI rank (hybrid builds);
	// 0 means 1.
	Threads int
	// Quartets is the ERI source, required. Every production run sets it
	// to an integrals.PairCache (precomputed shell-pair data); tests may
	// set the independent oracle instead.
	Quartets integrals.QuartetSource
}

func (c Config) threads() int {
	if c.Threads <= 0 {
		return 1
	}
	return c.Threads
}

// dynamic1 is the paper's schedule(dynamic,1), the schedule of every
// work-shared loop in Algorithms 2 and 3.
var dynamic1 = omp.Schedule{Kind: omp.Dynamic, Chunk: 1}

// Stats counts what a build did; the discrete-event simulator is
// calibrated against these counters.
type Stats struct {
	QuartetsComputed int64 // shell quartets whose ERIs were evaluated
	QuartetsScreened int64 // shell quartets skipped by Schwarz screening
	PairsSkipped     int64 // whole ij iterations skipped by prescreening
	DLBGrabs         int64 // dynamic load balancer fetches
	Flushes          int64 // FI/FJ buffer flushes (shared-Fock only)
	Barriers         int64 // team barriers thread 0 passed (hybrid presets only)
	TasksReissued    int64 // DLB leases stolen from failed ranks (resilient-fock only)

	// Speculative re-issue accounting (resilient-fock only). Under
	// hedging a quartet may be COMPUTED more than once (straggler + one
	// or more hedgers), but exactly one copy wins the commit race, so
	// QuartetsCommitted — not QuartetsComputed — is the exactly-once
	// quantity summing to the serial count across ranks.
	QuartetsCommitted int64 // quartets whose contribution won the commit and was pushed
	TasksHedged       int64 // leases speculatively recomputed off flagged stragglers
	TasksDeduped      int64 // computed task results dropped after losing the commit race
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.QuartetsComputed += other.QuartetsComputed
	s.QuartetsScreened += other.QuartetsScreened
	s.PairsSkipped += other.PairsSkipped
	s.DLBGrabs += other.DLBGrabs
	s.Flushes += other.Flushes
	s.Barriers += other.Barriers
	s.TasksReissued += other.TasksReissued
	s.QuartetsCommitted += other.QuartetsCommitted
	s.TasksHedged += other.TasksHedged
	s.TasksDeduped += other.TasksDeduped
}

// PairIndex maps i >= j to the canonical combined pair index, the "ij"
// of Algorithms 1 and 3.
func PairIndex(i, j int) int { return i*(i+1)/2 + j }

// PairDecode inverts PairIndex.
func PairDecode(ij int) (i, j int) {
	i = int((math.Sqrt(float64(8*ij+1)) - 1) / 2)
	// Guard against floating point at block boundaries.
	for PairIndex(i+1, 0) <= ij {
		i++
	}
	for PairIndex(i, 0) > ij {
		i--
	}
	return i, ij - PairIndex(i, 0)
}

// NumPairs returns the number of canonical shell pairs for n shells.
func NumPairs(n int) int { return n * (n + 1) / 2 }

// quartetLoopBounds reports lmax for the canonical quartet enumeration at
// (i, j, k): l runs over [0, lmax]. (Algorithm 1 line 5; the Algorithm 2
// listing transposes the two branches — a typo in the paper — the
// canonical bound is j when k == i, else k.)
func quartetLoopBounds(i, j, k int) int {
	if k == i {
		return j
	}
	return k
}

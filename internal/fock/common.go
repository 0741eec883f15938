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

	"repro/internal/ddi"
	"repro/internal/integrals"
	"repro/internal/linalg"
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

// Builder is one rank's Fock build for one world attempt. A preset's
// constructor makes it once; every SCF iteration calls Build, which only
// refills and clears what the builder owns: the shell blocking, one
// walker per thread (each with its ERI buffer and digest scratch), the
// shell-blocked copies of the replicated densities, and the preset's
// accumulators — replicas, FI/FJ, commit staging or tile sinks — sized on
// the first build for its channel count (DESIGN.md §3.1).
type Builder struct {
	lay   *blocking
	dx    *ddi.Context // nil for the serial build
	lanes []walker     // one per thread
	dens  [][]float64  // shell-blocked densities (blockDensities)
	acc   [][]float64  // what every build clears before its walk
	gs    [][][]float64
	// bind sizes the accumulators for nchan channels, adds them to acc
	// and binds every lane's channel sinks to them: by default one
	// replica per lane (gs[lane][channel]). walk runs the build's tasks;
	// close ends the build and returns its matrices: by default lane 0's
	// replicas reduced over the ranks.
	bind  func(nchan int)
	walk  func()
	close func() []*linalg.Matrix
}

// newBuilder is the state every preset shares: threads walkers (at
// least one) over one blocking, on dx, ERI blocks from src.
func newBuilder(dx *ddi.Context, eng *integrals.Engine, src integrals.QuartetSource,
	sch *integrals.Schwarz, tau float64, threads int) *Builder {
	b := &Builder{lay: newBlocking(eng.Basis.Shells), dx: dx, lanes: make([]walker, max(threads, 1))}
	for t := range b.lanes {
		b.lanes[t] = walker{shells: eng.Basis.Shells, lay: b.lay, src: src, sch: sch, tau: tau, dx: dx}
	}
	b.bind, b.close = b.replicated, b.reduce
	return b
}

// Build runs one Fock build of chans: the two-electron matrices, one per
// channel (none for the tiled preset, whose result lands in its
// distributed accumulators), and this rank's counters. Inside a world
// every rank calls it collectively.
func (b *Builder) Build(chans []Channel) ([]*linalg.Matrix, Stats) {
	b.prepare(chans)
	b.walk()
	var st Stats
	for t := range b.lanes {
		st.Add(b.lanes[t].st)
	}
	return b.close(), st
}

// prepare is every build's prologue: the first build sizes and binds the
// accumulators for its channel count, which every later build keeps;
// each build blocks its densities and clears the accumulators and the
// counters.
func (b *Builder) prepare(chans []Channel) {
	if b.dens == nil {
		b.dens = make([][]float64, 2*len(chans))
		for t := range b.lanes {
			b.lanes[t].chans = make([]Channel, len(chans))
		}
		b.bind(len(chans))
	} else if len(chans) != len(b.lanes[0].chans) {
		panic("fock: a builder's channel count is set by its first build")
	}
	b.blockDensities(chans)
	for _, g := range b.acc {
		clear(g)
	}
	for t := range b.lanes {
		b.lanes[t].st = Stats{}
	}
}

// blockDensities gives every lane chans' densities and coefficients,
// keeping its sinks. Channel c's replicated densities are stored
// shell-blocked into dens[2c] (DJ) and dens[2c+1] (DK), where RHF's DK
// shares DJ's copy; a hybrid team shares the copies read-only.
func (b *Builder) blockDensities(chans []Channel) {
	for c, ch := range chans {
		for k, d := range [2]*Density{&ch.DJ, &ch.DK} {
			switch {
			case d.dense == nil:
			case k == 1 && ch.DJ.dense != nil && &d.dense[0] == &ch.DJ.dense[0]:
				d.blocked = ch.DJ.blocked
			default:
				if b.dens[2*c+k] == nil {
					b.dens[2*c+k] = make([]float64, len(d.dense))
				}
				d.blocked = b.dens[2*c+k]
				b.lay.fromDense(d.blocked, d.dense)
			}
		}
		for t := range b.lanes {
			ch.out = b.lanes[t].chans[c].out
			b.lanes[t].chans[c] = ch
		}
	}
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

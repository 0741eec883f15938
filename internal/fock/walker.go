package fock

import (
	"time"

	"repro/internal/basis"
	"repro/internal/ddi"
	"repro/internal/integrals"
	"repro/internal/mpi"
	"repro/internal/omp"
	"repro/internal/telemetry"
)

// walker is the one place a shell quartet is screened, counted, evaluated
// and digested, and the carrier of the per-task hooks (fock.task span,
// SDC injection, chaos stall, straggler latency). The presets decide
// WHICH quartets a walker sees — task space and scheduler — and where the
// channels' sinks land; a builder holds one walker per thread (private
// stats, ERI buffer, digest scratch and sinks) for all its builds.
type walker struct {
	shells []basis.Shell
	lay    *blocking
	src    integrals.QuartetSource
	sch    *integrals.Schwarz
	tau    float64
	// dx is nil in serial sweeps, which have no runtime to hook into.
	dx *ddi.Context

	chans []Channel
	st    Stats
	buf   []float64
	sc    scratch
}

// quartet is the screen -> count -> evaluate -> digest step every build
// performs per symmetry-unique shell quartet.
func (w *walker) quartet(i, j, k, l int) {
	if !w.survives(i, j, k, l) {
		w.st.QuartetsScreened++
		return
	}
	w.st.QuartetsComputed++
	w.buf = w.src.ShellQuartet(i, j, k, l, w.buf)
	digest(w.buf, w.lay, i, j, k, l, w.chans, &w.sc)
}

// survives is the Schwarz screen, the one test of whether a quartet's
// ERIs are evaluated.
func (w *walker) survives(i, j, k, l int) bool { return w.sch.Bound(i, j, k, l) >= w.tau }

// row runs the l loop of the canonical enumeration at (i, j, k)
// (Algorithm 1 line 5 sets its bound) — the unit Algorithm 2 work-shares.
func (w *walker) row(i, j, k int) {
	lmax := quartetLoopBounds(i, j, k)
	for l := 0; l <= lmax; l++ {
		w.quartet(i, j, k, l)
	}
}

// pair runs the full canonical (k, l) enumeration of the ij task: the
// loops under Algorithm 1's DLB test.
func (w *walker) pair(i, j int) {
	for k := 0; k <= i; k++ {
		w.row(i, j, k)
	}
}

// sweep is the static scheduler: every ij task in canonical order on the
// calling thread.
func (w *walker) sweep() {
	for i := range w.shells {
		for j := 0; j <= i; j++ {
			w.pair(i, j)
		}
	}
}

// dlbPairs is the task loop of Algorithm 1: every rank scans the combined
// ij index and runs the pairs the DLB counter hands it.
// sdcTarget is the memory a scheduled corruption lands in.
func (w *walker) dlbPairs(sdcTarget *[]float64) {
	w.dx.DLBReset()
	next := w.dx.DLBNext() // first pair index this rank owns
	w.st.DLBGrabs++
	ij := int64(0)
	for i := range w.shells {
		for j := 0; j <= i; j++ {
			// SDC hook: one corruption opportunity per scanned shell pair.
			// Every rank scans all pairs in the same order regardless of
			// which rank the DLB hands each one to, so scheduled injections
			// are deterministic per rank.
			w.injectSDC(*sdcTarget)
			// MPI DLB over the combined ij index (Algorithm 1 line 3).
			if ij != next {
				ij++
				continue
			}
			ij++
			next = w.dx.DLBNext()
			w.st.DLBGrabs++
			sp := w.span("pair", 0)
			w.pair(i, j)
			w.endSpan(sp, i, j)
		}
	}
}

// teamFetch is the hybrid presets' task draw (Algorithm 2 lines 3-6, and
// the head of Algorithm 3's loop): the master draws DLB indices into
// *shared until one survives skip (Algorithm 3's ij prescreen; nil takes
// every draw) and the team reads it behind ONE barrier. The SDC hook fires
// in the master section — one opportunity per draw, into sdcTarget — where
// the team is fenced at the barrier below, so the write races nothing. The
// read is fenced from the master's NEXT write by the closing barrier of the
// tc.For that every returned task runs.
func (w *walker) teamFetch(tc *omp.Context, shared *int64, sdcTarget []float64, skip func(task int) bool) int {
	tc.Master(func() {
		for {
			*shared = w.dx.DLBNext()
			w.st.DLBGrabs++
			w.injectSDC(sdcTarget)
			if skip == nil || !skip(int(*shared)) {
				return
			}
			w.st.PairsSkipped++
		}
	})
	tc.Barrier()
	return int(*shared)
}

// span opens the fock.task span of one task on thread lane tid (0 = the
// rank's own lane); endSpan closes it.
func (w *walker) span(name string, tid int) telemetry.Span {
	return w.dx.Comm.Telemetry().Start("fock.task", name, w.dx.Comm.Rank(), tid, nil)
}

// endSpan closes the span of task (i, j) with its indices as args; j < 0
// marks an i-task. The args are unboxed: a traced task allocates nothing.
func (w *walker) endSpan(sp telemetry.Span, i, j int) {
	if j < 0 {
		sp.EndInts(telemetry.IntArg{Key: "i", Val: int64(i)})
		return
	}
	sp.EndInts(telemetry.IntArg{Key: "i", Val: int64(i)}, telemetry.IntArg{Key: "j", Val: int64(j)})
}

// injectSDC gives a scheduled silent-data-corruption fault its shot at
// target. Transport checksums cannot catch what lands here (the payload
// is "validly" wrong at send time) — the SCF-side matrix validators
// must.
func (w *walker) injectSDC(target []float64) {
	w.dx.Comm.InjectSDC(mpi.SiteFock, target)
}

// observe closes a task started at t0 for the straggler machinery: a
// sustained chaos Slowdown scheduled for this rank stalls it here, making
// it a genuine straggler, and the task latency (stall included) feeds
// the detector's shared window.
func (w *walker) observe(t0 time.Time) {
	elapsed := time.Since(t0)
	elapsed += w.dx.Comm.TaskStall(mpi.SiteFock, elapsed)
	w.dx.ObserveTaskLatency(elapsed)
}

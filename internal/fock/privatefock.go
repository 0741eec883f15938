package fock

import (
	"repro/internal/ddi"
	"repro/internal/integrals"
	"repro/internal/linalg"
	"repro/internal/omp"
)

// PrivateFockBuild is the paper's Algorithm 2: the hybrid MPI/OpenMP
// variant with a shared (read-only) density matrix and one private Fock
// accumulator per thread. The MPI dynamic load balancer hands out single
// i shell indices; within a rank, OpenMP work-shares the collapsed (j, k)
// loops with schedule(dynamic,1); the per-thread Fock copies are reduced
// over threads and then over ranks.
//
// Call from inside mpi.Run on every rank. The returned Fock matrices (one
// per channel) are complete and identical on all ranks.
func PrivateFockBuild(dx *ddi.Context, eng *integrals.Engine,
	sch *integrals.Schwarz, chans []Channel, cfg Config) ([]*linalg.Matrix, Stats) {
	ns := len(eng.Basis.Shells)
	nthreads := cfg.threads()

	// Thread-private Fock replicas (the algorithm's defining memory cost:
	// (2 + Nthreads) N^2 per rank, eq. 3b), blocked like the shared
	// densities the team reads.
	lay := newBlocking(eng.Basis.Shells)
	chans = blockDensities(lay, chans)
	priv := make([][][]float64, nthreads) // [thread][channel]
	lanes := make([]walker, nthreads)
	for t := range lanes {
		lanes[t] = newWalker(dx, eng, sch, cfg)
		priv[t], lanes[t].chans = replicated(lay, chans)
	}

	dx.DLBReset()
	var iShared int64 // written by master, read by all behind teamFetch's barrier
	stats := runTeam(lanes, func(tc *omp.Context, me int, w *walker) {
		for {
			// Master fetches the next i index (Algorithm 2 lines 3-6); a
			// scheduled corruption lands in its private replica.
			i := w.teamFetch(tc, &iShared, priv[me][0], nil)
			if i >= ns {
				break
			}
			// OpenMP over collapsed (j, k), j <= i, k <= i (line 7). Each
			// thread's span covers its share of the collapsed loops, so the
			// trace shows intra-team imbalance per i-task.
			sp := w.span("i-task", me+1)
			tc.Collapse2(i+1, i+1, dynamic1, func(j, k int) { w.row(i, j, k) })
			w.endSpan(sp, i, -1)
		}
		// reduction(+:Fock) over threads: chunked reduction of the private
		// replicas into thread 0's copy (paper Figure 1(B) access pattern).
		for c := range chans {
			others := make([][]float64, 0, nthreads-1)
			for t := 1; t < nthreads; t++ {
				others = append(others, priv[t][c])
			}
			tc.ReduceChunked(priv[0][c], others)
			tc.Barrier()
		}
	})
	return reduce(dx, lay, priv[0]), stats
}

// runTeam runs body on an OpenMP team of one walker per thread and returns
// the team's summed counters, Barriers being thread 0's.
func runTeam(lanes []walker, body func(tc *omp.Context, me int, w *walker)) Stats {
	omp.NewTeam(len(lanes)).Parallel(func(tc *omp.Context) {
		w := &lanes[tc.ThreadID()]
		body(tc, tc.ThreadID(), w)
		tc.Master(func() { w.st.Barriers = int64(tc.Barriers()) })
	})
	var stats Stats
	for t := range lanes {
		stats.Add(lanes[t].st)
	}
	return stats
}

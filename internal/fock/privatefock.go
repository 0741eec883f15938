package fock

import (
	"repro/internal/ddi"
	"repro/internal/integrals"
	"repro/internal/omp"
)

// PrivateFockBuild is the paper's Algorithm 2: the hybrid MPI/OpenMP
// variant with a shared (read-only) density matrix and one private Fock
// accumulator per thread. The MPI dynamic load balancer hands out single
// i shell indices; within a rank, OpenMP work-shares the collapsed (j, k)
// loops with schedule(dynamic,1); the per-thread Fock copies are reduced
// over threads and then over ranks.
//
// Construct it inside mpi.Run on every rank. Build returns the complete
// Fock matrices (one per channel), identical on all ranks.
func PrivateFockBuild(dx *ddi.Context, eng *integrals.Engine,
	sch *integrals.Schwarz, cfg Config) *Builder {
	ns := len(eng.Basis.Shells)
	// Thread-private Fock replicas, the default accumulators: the
	// algorithm's defining memory cost, (2 + Nthreads) N^2 per rank
	// (eq. 3b), blocked like the shared densities the team reads.
	b := newBuilder(dx, eng, cfg.Quartets, sch, DefaultTau, cfg.Threads)

	var iShared int64 // written by master, read by all behind teamFetch's barrier
	b.walk = b.team(func(tc *omp.Context, me int, w *walker) {
		for {
			// Master fetches the next i index (Algorithm 2 lines 3-6); a
			// scheduled corruption lands in its private replica.
			i := w.teamFetch(tc, &iShared, b.gs[me][0], nil)
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
		for c, g := range b.gs[0] {
			for _, rep := range b.gs[1:] {
				tc.ReduceChunked(g, [][]float64{rep[c]})
			}
			tc.Barrier()
		}
	})
	return b
}

// team returns the walk of a hybrid preset: after the DLB counter's
// reset, body runs on an OpenMP team of one lane per thread, and thread
// 0's lane records the barriers it passed.
func (b *Builder) team(body func(tc *omp.Context, me int, w *walker)) func() {
	team := omp.NewTeam(len(b.lanes))
	region := func(tc *omp.Context) {
		w := &b.lanes[tc.ThreadID()]
		body(tc, tc.ThreadID(), w)
		tc.Master(func() { w.st.Barriers = int64(tc.Barriers()) })
	}
	return func() {
		b.dx.DLBReset()
		team.Parallel(region)
	}
}

package fock

import (
	"time"

	"repro/internal/ddi"
	"repro/internal/integrals"
	"repro/internal/omp"
)

// SharedFockBuild is the paper's Algorithm 3: shared density AND shared
// Fock matrix. The MPI dynamic load balancer distributes combined ij
// shell-pair indices (a much finer task space than Algorithm 2's i loop,
// which is what wins at scale); OpenMP work-shares the inner combined kl
// pair loop with schedule(dynamic,1). Per-thread column-block buffers FI
// and FJ absorb the i- and j-shell contributions; the kl block updates
// the shared Fock directly, race-free because each kl iteration is owned
// by exactly one thread. FI is flushed only when the i index changes
// (plus once at the end); FJ is flushed after every kl loop; flushes are
// chunked reductions of one contiguous block row, partitioned over the
// team and barrier-isolated from quartet work (paper Figure 1).
//
// Construct it inside mpi.Run on every rank; Build returns the complete
// Fock matrices (one per channel, each with its own FI/FJ buffer set),
// identical on all ranks.
func SharedFockBuild(dx *ddi.Context, eng *integrals.Engine,
	sch *integrals.Schwarz, cfg Config) *Builder {
	n := eng.Basis.NumBF
	npairs := NumPairs(len(eng.Basis.Shells))
	maxQ := sch.MaxQ()
	b := newBuilder(dx, eng, cfg.Quartets, sch, DefaultTau, cfg.Threads)
	lay := b.lay

	// Shared blocked accumulators (gs[0], which closes the build), and
	// FI/FJ: per thread a private copy of one shell's block row of G,
	// [shell function x NBF] (Algorithm 3 line 3). Separate slices per
	// thread keep them on distinct cache lines (the role of the paper's
	// padding bytes).
	var gs [][]float64
	var fi, fj [][][]float64 // [channel][thread]
	b.bind = func(nchan int) {
		gs, fi, fj = make([][]float64, nchan), make([][][]float64, nchan), make([][][]float64, nchan)
		for c := range gs {
			gs[c] = make([]float64, n*n)
			fi[c], fj[c] = make([][]float64, len(b.lanes)), make([][]float64, len(b.lanes))
			b.acc = append(b.acc, gs[c])
			for t := range b.lanes {
				fi[c][t], fj[c][t] = make([]float64, lay.maxNum*n), make([]float64, lay.maxNum*n)
				b.acc = append(b.acc, fi[c][t], fj[c][t])
				b.lanes[t].chans[c].out = &routedSink{lay: lay, g: gs[c], fi: fi[c][t], fj: fj[c][t]}
			}
		}
		b.gs = [][][]float64{gs}
	}

	// flush adds the per-thread copies of shell sh's block row into the
	// shared accumulators' one contiguous span of that row, partitioned
	// over the team, and zeroes them. Callers wrap it in barriers.
	flush := func(tc *omp.Context, bufs [][][]float64, sh int) {
		row := n * lay.off[sh]
		for c, g := range gs {
			tc.ReduceChunked(g[row:row+lay.num[sh]*n], bufs[c])
		}
	}

	// I and J prescreening (Algorithm 3 line 13): the whole top iteration
	// is skipped, inside the master's draw, when no kl can survive.
	skip := func(ij int) bool {
		i, j := PairDecode(ij)
		return ij < npairs && sch.PairQ(i, j)*maxQ < DefaultTau
	}
	var ijShared int64
	b.walk = b.team(func(tc *omp.Context, me int, w *walker) {
		iold := -1
		for {
			// Master draws the next surviving ij (a scheduled SDC hits gs[0]).
			ij := w.teamFetch(tc, &ijShared, gs[0], skip)
			if ij >= npairs {
				break
			}
			taskT0 := time.Now()
			i, j := PairDecode(ij)
			// Flush FI if i changed since the last processed pair
			// (Algorithm 3 lines 15-18).
			if i != iold && iold >= 0 {
				tc.Barrier()
				flush(tc, fi, iold)
				w.st.Flushes++
				tc.Barrier()
			}
			// Inner kl loop, kl = 0..ij (Algorithm 3 lines 19-30).
			// tc.For carries the `omp end do` implicit barrier. Per-thread
			// spans expose intra-team imbalance per ij-task in the trace.
			sp := w.span("ij-task", me+1)
			tc.For(ij+1, dynamic1, func(kl int) {
				k, l := PairDecode(kl)
				w.quartet(i, j, k, l)
			})
			w.endSpan(sp, i, j)
			// Flush FJ after every kl loop (Algorithm 3 line 31).
			flush(tc, fj, j)
			w.st.Flushes++
			// The master's task latency stands for the rank: the team
			// blocks on the next barrier behind a stalled master, so the
			// whole rank slows by a scheduled chaos factor.
			tc.Master(func() { w.observe(taskT0) })
			tc.Barrier()
			iold = i
		}
		// Remainder FI flush (Algorithm 3 line 36). All threads exited the
		// loop together, so iold agrees across the team.
		if iold >= 0 {
			tc.Barrier()
			flush(tc, fi, iold)
			tc.Barrier()
		}
	})
	return b
}

// routedSink is the shared-Fock sink of one thread and channel: updates
// whose rows are the i shell's go to this thread's FI copy of G's block
// row i, those whose rows are the j shell's to FJ, and the kl block
// updates the shared accumulator directly (Algorithm 3 lines 25-27),
// race-free because each kl iteration is owned by exactly one thread.
type routedSink struct {
	lay    *blocking
	fi, fj []float64
	g      []float64 // the shared blocked accumulator
}

func (r *routedSink) block(role, a, b int) []float64 {
	switch role {
	case roleAB, roleAC, roleAD:
		return r.lay.rowBlock(r.fi, a, b)
	case roleBD, roleBC:
		return r.lay.rowBlock(r.fj, a, b)
	default: // roleCD: shell k's rows, shell l's columns.
		return r.lay.block(r.g, a, b)
	}
}

func (r *routedSink) done() {}

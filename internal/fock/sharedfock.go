package fock

import (
	"time"

	"repro/internal/basis"
	"repro/internal/ddi"
	"repro/internal/integrals"
	"repro/internal/linalg"
	"repro/internal/omp"
)

// SharedFockBuild is the paper's Algorithm 3: shared density AND shared
// Fock matrix. The MPI dynamic load balancer distributes combined ij
// shell-pair indices (a much finer task space than Algorithm 2's i loop,
// which is what wins at scale); OpenMP work-shares the inner combined kl
// pair loop with schedule(dynamic,1). Per-thread column-block buffers FI
// and FJ absorb the i- and j-shell contributions; the kl element updates
// the shared Fock directly, race-free because each kl iteration is owned
// by exactly one thread. FI is flushed only when the i index changes
// (plus once at the end); FJ is flushed after every kl loop; flushes are
// chunked reductions partitioned over the column index, barrier-isolated
// from quartet work (paper Figure 1).
//
// Call from inside mpi.Run on every rank; the returned Fock matrices (one
// per channel, each with its own FI/FJ buffer set) are complete and
// identical on all ranks.
func SharedFockBuild(dx *ddi.Context, eng *integrals.Engine,
	sch *integrals.Schwarz, chans []Channel, cfg Config) ([]*linalg.Matrix, Stats) {
	n := eng.Basis.NumBF
	shells := eng.Basis.Shells
	npairs := NumPairs(len(shells))
	nthreads := cfg.threads()
	maxQ := sch.MaxQ()
	maxSz := eng.Basis.ShellSizeMax()

	// Shared lower-triangle accumulators, and FI/FJ: one [shell function x
	// NBF] block per thread (Algorithm 3 line 3). Separate slices per
	// thread keep them on distinct cache lines (the role of the paper's
	// padding bytes).
	accs := make([]*linalg.Matrix, len(chans))
	fi := make([][][]float64, len(chans)) // [channel][thread]
	fj := make([][][]float64, len(chans))
	for c := range accs {
		accs[c] = linalg.NewSquare(n)
		fi[c] = make([][]float64, nthreads)
		fj[c] = make([][]float64, nthreads)
		for t := 0; t < nthreads; t++ {
			fi[c][t] = make([]float64, maxSz*n)
			fj[c][t] = make([]float64, maxSz*n)
		}
	}
	routes := make([][]*routedSink, nthreads) // [thread][channel]
	lanes := make([]walker, nthreads)
	for t := range lanes {
		routes[t] = make([]*routedSink, len(chans))
		for c := range chans {
			routes[t][c] = &routedSink{n: n, acc: accs[c].Data, fi: fi[c][t], fj: fj[c][t]}
		}
		lanes[t] = newWalker(dx, eng, sch, cfg)
		lanes[t].chans = bind(chans, func(c int) sink { return routes[t][c] })
	}

	// flush adds the per-thread buffers for shell sh into the shared
	// accumulators and zeroes them. Contributions live at slot
	// [local*n + y]; the write target is the canonical lower-triangle
	// element of {shellOffset+local, y}. Work is partitioned over y, which
	// is race-free (see the buffer-slot normalization in routedSink).
	// Callers wrap it in barriers.
	flush := func(tc *omp.Context, bufs [][][]float64, sh int) {
		s := &shells[sh]
		off, cnt := s.BFOffset, s.NumFuncs()
		lo, hi := tc.StaticRange(n)
		for c, acc := range accs {
			for local := 0; local < cnt; local++ {
				row := off + local
				for y := lo; y < hi; y++ {
					sum := 0.0
					for _, buf := range bufs[c] {
						sum += buf[local*n+y]
						buf[local*n+y] = 0
					}
					if sum == 0 {
						continue
					}
					if row >= y {
						acc.Add(row, y, sum)
					} else {
						acc.Add(y, row, sum)
					}
				}
			}
		}
	}

	// I and J prescreening (Algorithm 3 line 13): the whole top iteration
	// is skipped, inside the master's draw, when no kl can survive.
	skip := func(ij int) bool {
		i, j := PairDecode(ij)
		return ij < npairs && sch.PairQ(i, j)*maxQ < DefaultTau
	}
	dx.DLBReset()
	var ijShared int64
	stats := runTeam(lanes, func(tc *omp.Context, me int, w *walker) {
		iold := -1
		for {
			// Master draws the next surviving ij (a scheduled SDC hits accs[0]).
			ij := w.teamFetch(tc, &ijShared, accs[0].Data, skip)
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
			for _, r := range routes[me] {
				r.aim(&shells[i], &shells[j])
			}
			// Inner kl loop, kl = 0..ij (Algorithm 3 lines 19-30).
			// tc.For carries the `omp end do` implicit barrier. Per-thread
			// spans expose intra-team imbalance per ij-task in the trace.
			end := w.span("ij-task", me+1, i, j)
			tc.For(ij+1, dynamic1, func(kl int) {
				k, l := PairDecode(kl)
				w.quartet(i, j, k, l)
			})
			end()
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
	reduce(dx, accs)
	return accs, stats
}

// routedSink is the shared-Fock sink of one thread and channel: updates
// touching the i shell go to this thread's FI buffer, updates touching
// the j shell go to FJ, and the kl element updates the shared accumulator
// directly (Algorithm 3 lines 25-27).
//
// Buffer slots are [local*n + other]. When both indices of a pair fall in
// the buffer's own shell block, the slot is normalized to
// (maxLocal, minGlobal) so that the flush's partition-by-column is
// race-free.
type routedSink struct {
	n              int
	fi, fj         []float64
	acc            []float64 // the shared row-major N x N accumulator
	oi, ni, oj, nj int       // offset and width of the task's i and j shells
}

// aim points the sink at the shells of the next ij task.
func (r *routedSink) aim(si, sj *basis.Shell) {
	r.oi, r.ni = si.BFOffset, si.NumFuncs()
	r.oj, r.nj = sj.BFOffset, sj.NumFuncs()
}

func (r *routedSink) addBlock(role, x0, nx, y0, ny int, scale float64, blk []float64) {
	switch role {
	case roleAB, roleAC, roleAD:
		addLocal(r.fi, r.n, x0-r.oi, nx, y0, ny, y0 == r.oi, scale, blk)
	case roleBD, roleBC:
		addLocal(r.fj, r.n, x0-r.oj, nx, y0, ny, y0 == r.oj, scale, blk)
	default: // roleCD: shell k's rows, shell l's columns, k >= l.
		addLower(r.acc, r.n, x0, nx, y0, ny, scale, blk)
	}
}

// addLocal adds scale*blk into a shell's column buffer at slots
// [(lx+row)*n + y]. diag marks the shell's own diagonal block, whose
// upper half is normalized to (max local, min global).
func addLocal(buf []float64, n, lx, nx, y0, ny int, diag bool, scale float64, blk []float64) {
	for r := 0; r < nx; r++ {
		src := blk[r*ny : r*ny+ny]
		dst := buf[(lx+r)*n+y0:]
		dst = dst[:len(src)]
		if !diag {
			for c, v := range src {
				dst[c] += scale * v
			}
			continue
		}
		for c, v := range src {
			if c > r {
				buf[(lx+c)*n+y0+r] += scale * v
			} else {
				dst[c] += scale * v
			}
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/basis"
	"repro/internal/ddi"
	"repro/internal/fock"
	"repro/internal/integrals"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/scf"
)

// timedSource decorates the QuartetSource handed to fock.Config.Quartets:
// the kernel's time is the decorator's total, and the Fock build's
// walk + digest self time is the build span minus it.
type timedSource struct {
	src integrals.QuartetSource
	ns  atomic.Int64
}

func (t *timedSource) ShellQuartet(i, j, k, l int, out []float64) []float64 {
	t0 := time.Now()
	out = t.src.ShellQuartet(i, j, k, l, out)
	t.ns.Add(time.Since(t0).Nanoseconds())
	return out
}

// take returns and clears the accumulated kernel time.
func (t *timedSource) take() time.Duration { return time.Duration(t.ns.Swap(0)) }

// scfRun is the in-process composition of what hfrun executes for the
// workload, from the layers' public constructors and entry points:
// set-up, then scf.RunRHF over scf.ParallelBuilder inside an mpi world.
// With a tracer it records setup {basis.build, integrals.schwarz,
// integrals.paircache} and scf.run {fock.build x iterations, each with
// its accumulated integrals.eri time}; rank 0 records. With a nil tracer
// the same work runs undecorated — the untraced side of
// trace.overhead_ratio.
func scfRun(w scfWorkload, root string, tr *Tracer) (*scf.Result, scfParts, time.Duration, error) {
	mol, err := w.molecule(root)
	if err != nil {
		return nil, scfParts{}, 0, err
	}
	start := time.Now()
	top := tr.Start("workload", 0)
	setup := tr.Start("setup", top)
	s := tr.Start("basis.build", setup)
	bas, err := basis.Build(mol, w.basis)
	if err != nil {
		return nil, scfParts{}, 0, err
	}
	parts := scfParts{bas: bas, eng: integrals.NewEngine(bas)}
	tr.End(s)
	// The one-electron integrals are not built here: scf.RunRHF builds
	// them itself, so in this composition they sit inside scf.run (and in
	// scf.nonfock_s); integrals.oneelec_s is probed separately.
	s = tr.Start("integrals.schwarz", setup)
	parts.sch = integrals.ComputeSchwarz(parts.eng)
	tr.End(s)
	s = tr.Start("integrals.paircache", setup)
	parts.cache = integrals.NewPairCache(parts.eng, 0)
	tr.End(s)
	tr.End(setup)

	run := tr.Start("scf.run", top)
	results := make([]*scf.Result, w.ranks)
	errs := make([]error, w.ranks)
	_, runErr := mpi.RunWithOptions(w.ranks, mpi.RunOptions{}, func(c *mpi.Comm) {
		var src integrals.QuartetSource = parts.cache
		var rec *Tracer
		var dec *timedSource
		if c.Rank() == 0 && tr != nil {
			rec = tr
			dec = &timedSource{src: parts.cache}
			src = dec
		}
		inner := scf.ParallelBuilder(scf.Algorithm(w.alg), ddi.New(c), parts.eng, parts.sch,
			fock.Config{Threads: w.threads, Quartets: src})
		builder := inner
		if rec != nil {
			builder = func(d *linalg.Matrix) (*linalg.Matrix, fock.Stats) {
				id := rec.Start("fock.build", run)
				t0 := time.Now()
				g, st := inner(d)
				// threads evaluate quartets side by side: the kernel's
				// share of this rank's wall is its summed time / threads.
				rec.Add("integrals.eri", id, t0, dec.take()/time.Duration(w.threads))
				rec.End(id)
				return g, st
			}
		}
		// hfrun's options: MaxIter 100, core guess, no telemetry.
		res, err := scf.RunRHF(parts.eng, builder, scf.Options{MaxIter: 100, Guess: "core"})
		results[c.Rank()], errs[c.Rank()] = res, err
	})
	tr.End(run)
	tr.End(top)
	wall := time.Since(start)
	if runErr != nil {
		return nil, parts, wall, runErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, parts, wall, err
		}
	}
	return results[0], parts, wall, nil
}

// fockBuild times one Fock build of a preset on a fixed density inside a
// fresh world of ranks x threads. It returns rank 0's wall, the build's
// stats summed over ranks, the kernel time summed over rank 0's threads
// (when timed), and the heap allocations and bytes of the build.
func fockBuild(p scfParts, d *linalg.Matrix, alg string, ranks, threads int, timed bool) (sec float64, stats fock.Stats, kernel time.Duration, mallocs, bytes uint64, err error) {
	perRank := make([]fock.Stats, ranks)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	_, err = mpi.RunWithOptions(ranks, mpi.RunOptions{}, func(c *mpi.Comm) {
		var src integrals.QuartetSource = p.cache
		var dec *timedSource
		if timed && c.Rank() == 0 {
			dec = &timedSource{src: p.cache}
			src = dec
		}
		b := scf.ParallelBuilder(scf.Algorithm(alg), ddi.New(c), p.eng, p.sch,
			fock.Config{Threads: threads, Quartets: src})
		c.Barrier()
		t0 := time.Now()
		_, st := b(d)
		if c.Rank() == 0 {
			sec = time.Since(t0).Seconds()
			if dec != nil {
				kernel = dec.take()
			}
		}
		perRank[c.Rank()] = st
	})
	runtime.ReadMemStats(&m1)
	for _, st := range perRank {
		stats.Add(st)
	}
	return sec, stats, kernel, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, err
}

// forSurvivingQuartets visits the workload's surviving shell quartets:
// the canonical symmetry-unique loops and Schwarz screen of
// fock.SerialBuild.
func forSurvivingQuartets(p scfParts, visit func(i, j, k, l int)) {
	ns := len(p.bas.Shells)
	for i := 0; i < ns; i++ {
		for j := 0; j <= i; j++ {
			for k := 0; k <= i; k++ {
				lmax := k
				if k == i {
					lmax = j
				}
				for l := 0; l <= lmax; l++ {
					if !p.sch.Screened(i, j, k, l, fock.DefaultTau) {
						visit(i, j, k, l)
					}
				}
			}
		}
	}
}

// quartetWalk evaluates the whole surviving quartet list through the
// PairCache on one thread, without digestion, and returns the count, the
// wall, and the heap allocations and bytes it caused.
func quartetWalk(p scfParts) (quartets int64, wall time.Duration, mallocs, bytes uint64) {
	var buf []float64
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	forSurvivingQuartets(p, func(i, j, k, l int) {
		quartets++
		buf = p.cache.ShellQuartet(i, j, k, l, buf)
	})
	wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	return quartets, wall, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

// primQuartets computes (does not measure) the primitive quartets one
// build evaluates: for every surviving shell quartet, the product of the
// bra and ket primitive-pair counts that pass the PairCache's overlap
// prefactor cutoff.
func primQuartets(p scfParts) int64 {
	shells := p.bas.Shells
	kept := make([]int64, len(shells)*(len(shells)+1)/2)
	for i := range shells {
		for j := 0; j <= i; j++ {
			a, b := &shells[i], &shells[j]
			r2 := 0.0
			for x := 0; x < 3; x++ {
				d := a.Center[x] - b.Center[x]
				r2 += d * d
			}
			for _, ap := range a.Exps {
				for _, bq := range b.Exps {
					if math.Exp(-ap*bq/(ap+bq)*r2) >= p.cache.PrimTol {
						kept[i*(i+1)/2+j]++
					}
				}
			}
		}
	}
	var total int64
	forSurvivingQuartets(p, func(i, j, k, l int) {
		total += kept[i*(i+1)/2+j] * kept[k*(k+1)/2+l]
	})
	return total
}

// programCounts runs hfrun once with -metrics and reads the three
// program-reported per-SCF counts from its telemetry registry snapshot.
func programCounts(e *benchEnv, w scfWorkload) (draws, msgs, bytes float64, out string, err error) {
	file := filepath.Join(e.tmp, "metrics-"+w.name+".json")
	out, _, err = e.runHFRun(append(w.hfrunArgs(), "-metrics", file)...)
	if err != nil {
		return 0, 0, 0, out, err
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return 0, 0, 0, out, err
	}
	var snap struct {
		Counters   map[string]float64 `json:"counters"`
		Histograms map[string]struct {
			Sum float64 `json:"sum"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return 0, 0, 0, out, fmt.Errorf("%s: %w", file, err)
	}
	// A 1-rank world sends nothing: the counter is absent, the count is 0.
	return snap.Counters["ddi.dlb.draws"], snap.Counters["mpi.send.msgs"], snap.Histograms["mpi.send.bytes"].Sum, out, nil
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/basis"
	"repro/internal/ddi"
	"repro/internal/integrals"
	"repro/internal/jobs"
	"repro/internal/linalg"
	"repro/internal/molecule"
	"repro/internal/mpi"
	"repro/internal/omp"
)

// Layer probes: one small fixed input per layer, timed from here through
// the layer's public entry points. They are measured in every traced run
// (they do not depend on the workload except where a size is the
// workload's own), so the whole layer table accompanies each workload.

// perOp times batches of perBatch calls of f and returns the median
// per-call time in nanoseconds over the batches.
func perOp(batches, perBatch int, f func()) float64 {
	f() // first call pays lazy set-up
	xs := make([]float64, batches)
	for b := range xs {
		t0 := time.Now()
		for i := 0; i < perBatch; i++ {
			f()
		}
		xs[b] = float64(time.Since(t0).Nanoseconds()) / float64(perBatch)
	}
	return median(xs)
}

// eriClassProbes times one shell-quartet evaluation per carbon 6-31G(d)
// shell class (the classes of BenchmarkERIKernels and cmd/calibrate)
// through the PairCache — the path the SCF workloads execute — and counts
// its heap allocations.
func eriClassProbes(res *runResult) error {
	m := &molecule.Molecule{Name: "C2"}
	m.AddAtomAngstrom("C", 0, 0, 0)
	m.AddAtomAngstrom("C", 0, 0, molecule.CCBond)
	bas, err := basis.Build(m, "6-31g(d)")
	if err != nil {
		return err
	}
	pc := integrals.NewPairCache(integrals.NewEngine(bas), 0)
	// Shells 0..3 sit on atom 0 (S, L, L', D), 4..7 on atom 1; the cache
	// wants canonical i >= j, k >= l.
	var buf []float64
	for _, c := range []struct {
		name       string
		i, j, k, l int
	}{
		{"ssss", 4, 0, 4, 0}, {"slsl", 5, 0, 5, 0}, {"llll", 5, 1, 5, 1},
		{"lldd", 5, 1, 7, 3}, {"dddd", 7, 3, 7, 3},
	} {
		call := func() { buf = pc.ShellQuartet(c.i, c.j, c.k, c.l, buf) }
		const batches, perBatch = 9, 8
		res.set("integrals.eri_ns."+c.name, perOp(batches, perBatch, call), batches)
		res.set("integrals.eri_allocs."+c.name, testing.AllocsPerRun(10, call), 10)
	}
	return nil
}

// ompProbe times the per-iteration dispatch of an empty
// schedule(dynamic,1) loop over a 2-thread team.
func ompProbe(res *runResult) {
	const iters, reps = 200000, 7
	team := omp.NewTeam(2)
	xs := make([]float64, reps)
	for r := range xs {
		t0 := time.Now()
		team.Parallel(func(tc *omp.Context) {
			tc.For(iters, omp.Schedule{Kind: omp.Dynamic, Chunk: 1}, func(int) {})
		})
		xs[r] = float64(time.Since(t0).Nanoseconds()) / iters
	}
	res.set("omp.for_dispatch_ns", median(xs), reps)
}

// ddiProbes times a DLB draw alone (1 rank) and with a second rank
// drawing at the same time (per draw, as one rank sees it).
func ddiProbes(res *runResult) error {
	const draws, reps = 20000, 7
	for _, p := range []struct {
		name  string
		ranks int
	}{{"ddi.dlb_draw_ns", 1}, {"ddi.dlb_draw_contended_ns", 2}} {
		xs := make([]float64, reps)
		err := mpi.Run(p.ranks, func(c *mpi.Comm) {
			dx := ddi.New(c)
			for r := 0; r < reps; r++ {
				dx.DLBReset()
				t0 := time.Now()
				for i := 0; i < draws; i++ {
					dx.DLBNext()
				}
				c.Barrier()
				if c.Rank() == 0 {
					xs[r] = float64(time.Since(t0).Nanoseconds()) / draws
				}
			}
		})
		if err != nil {
			return err
		}
		res.set(p.name, median(xs), reps)
	}
	return nil
}

// mpiProbes times world start-up, the Fock reduction at the workload's
// payload with and without checksum framing, and a barrier, all on 2
// ranks.
func mpiProbes(res *runResult, payload int) error {
	const starts = 200
	xs := make([]float64, starts)
	for i := range xs {
		t0 := time.Now()
		if err := mpi.Run(2, func(*mpi.Comm) {}); err != nil {
			return err
		}
		xs[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	res.set("mpi.world_start_us", median(xs), starts)

	const batches, perBatch = 9, 200
	for _, p := range []struct {
		name       string
		unverified bool
	}{{"mpi.allreduce_us", false}, {"mpi.allreduce_unverified_us", true}} {
		var us float64
		_, err := mpi.RunWithOptions(2, mpi.RunOptions{Unverified: p.unverified}, func(c *mpi.Comm) {
			buf := make([]float64, payload)
			v := perOp(batches, perBatch, func() { c.AllreduceSumInPlace(buf) }) / 1e3
			if c.Rank() == 0 {
				us = v
			}
		})
		if err != nil {
			return err
		}
		res.set(p.name, us, batches)
	}
	var us float64
	err := mpi.Run(2, func(c *mpi.Comm) {
		v := perOp(batches, perBatch*5, c.Barrier) / 1e3
		if c.Rank() == 0 {
			us = v
		}
	})
	if err != nil {
		return err
	}
	res.set("mpi.barrier_us", us, batches)
	return nil
}

// linalgProbes times the symmetric eigensolve at the workload's matrix
// size (on density_n256 that is the serial baseline of the same density
// problem) and a dense n = 256 multiply, on seeded symmetric input.
func linalgProbes(res *runResult, n int, seed int64) {
	a := syntheticGappedFock(n, n/2, seed)
	reps := 5
	if n < 100 {
		reps = 25
	}
	xs := make([]float64, reps)
	for i := range xs {
		in := a.Clone()
		t0 := time.Now()
		linalg.EigenSym(in)
		xs[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	res.set("linalg.eigensym_ms", median(xs), reps)

	b := syntheticGappedFock(256, 128, seed)
	c := linalg.NewSquare(256)
	ys := make([]float64, 7)
	for i := range ys {
		t0 := time.Now()
		linalg.MulInto(c, b, b)
		ys[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	res.set("linalg.matmul_n256_ms", median(ys), len(ys))
}

// jobsProbes times the job layer's primitives: canonical hashing, queue
// submit+claim, a cache lookup, and a WAL append with and without fsync.
func jobsProbes(res *runResult, tmp string) error {
	spec := jobs.Spec{Molecule: "water", Basis: "sto-3g"}.Normalized()
	var hashErr error
	hash := func() {
		if _, err := spec.CanonicalHash(); err != nil {
			hashErr = err
		}
	}
	res.set("jobs.hash_ns", perOp(9, 2000, hash), 9)
	res.set("jobs.hash_allocs", testing.AllocsPerRun(100, hash), 100)
	if hashErr != nil {
		return hashErr
	}

	const qBatch = 5000
	now := time.Now()
	var qErr error
	seq := 0
	q := jobs.NewQueue(qBatch)
	res.set("jobs.queue_submit_claim_ns", perOp(9, qBatch, func() {
		seq++
		id := fmt.Sprint(seq)
		if err := q.Submit(jobs.NewJob(id, id, spec, now)); err != nil {
			qErr = err
		} else if q.TryClaim() == nil {
			qErr = fmt.Errorf("queue claim returned nil")
		}
	}), 9)
	if qErr != nil {
		return qErr
	}

	cache := jobs.NewCache(256)
	for i := 0; i < 256; i++ {
		cache.Put(fmt.Sprint(i), &jobs.Outcome{Energy: float64(i), Converged: true})
	}
	k := 0
	res.set("jobs.cache_get_ns", perOp(9, 20000, func() {
		k = (k + 7) % 256
		cache.Get(fmt.Sprint(k))
	}), 9)

	for _, p := range []struct {
		name   string
		noSync bool
		n      int
	}{{"jobs.wal_append_us", false, 60}, {"jobs.wal_append_nosync_us", true, 2000}} {
		dir, err := os.MkdirTemp(tmp, "walprobe-")
		if err != nil {
			return err
		}
		wal, _, err := jobs.OpenWAL(jobs.WALOptions{Dir: filepath.Join(dir, "wal"), NoSync: p.noSync})
		if err != nil {
			return err
		}
		xs := make([]float64, p.n)
		for i := range xs {
			id := fmt.Sprintf("probe-%d", i)
			j := jobs.NewJob(id, id, spec, now)
			t0 := time.Now()
			if err := wal.AppendAccept(j, now); err != nil {
				wal.Close()
				return err
			}
			xs[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		}
		if err := wal.Close(); err != nil {
			return err
		}
		res.set(p.name, median(xs), p.n)
	}
	return nil
}

// layerProbes runs every workload-independent probe.
func layerProbes(res *runResult, e *benchEnv, payload, eigenN int, seed int64) error {
	if err := eriClassProbes(res); err != nil {
		return err
	}
	ompProbe(res)
	if err := ddiProbes(res); err != nil {
		return err
	}
	if err := mpiProbes(res, payload); err != nil {
		return err
	}
	linalgProbes(res, eigenN, seed)
	return jobsProbes(res, e.tmp)
}

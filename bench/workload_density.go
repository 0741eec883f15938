package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/ddi"
	"repro/internal/distmat"
	"repro/internal/linalg"
	"repro/internal/mpi"
)

// The density workload: one SP2 purification density step over 2D
// block-cyclic tiles, n = 256, nocc = 128, in a 2-rank world. integrals
// and fock do no work here; distmat, linalg, mpi one-sided traffic and
// ddi.GSumF do all of it.
const (
	densityN     = 256
	densityNocc  = 128
	densityRanks = 2
	densityTol   = 1e-12
	densitySweep = 200
)

// syntheticGappedFock builds an orthonormal-basis Fock with a clean
// HOMO-LUMO gap (occupied levels near -1, virtuals near +1) plus a small
// symmetric perturbation drawn from the seed — the generator of
// cmd/benchrun with the seed made an input.
func syntheticGappedFock(n, nocc int, seed int64) *linalg.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := linalg.NewSquare(n)
	for i := 0; i < n; i++ {
		if i < nocc {
			m.Set(i, i, -1)
		} else {
			m.Set(i, i, 1)
		}
		for j := 0; j < i; j++ {
			v := 0.05 * rng.NormFloat64() / float64(n)
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// triple is the working set of one purification: Fock, density, scratch.
type triple struct{ fp, dst, xsq *distmat.BlockMat }

func newTriple(c *mpi.Comm, abft bool) triple {
	g := distmat.NewGrid(c.Rank(), c.Size())
	dx := ddi.New(c)
	mk := distmat.New
	if abft {
		mk = distmat.NewABFT
	}
	return triple{fp: mk(g, dx, densityN, 0), dst: mk(g, dx, densityN, 0), xsq: mk(g, dx, densityN, 0)}
}

// traffic sums this rank's off-rank one-sided bytes over the triple.
func (t triple) traffic() (get, put, acc int64) {
	for _, m := range []*distmat.BlockMat{t.fp, t.dst, t.xsq} {
		g, p, a := m.Traffic()
		get, put, acc = get+g, put+p, acc+a
	}
	return
}

// densityOut is what one measurement world produced (rank 0's view).
type densityOut struct {
	plain, abft, audit []float64 // seconds per step
	sweeps             int
	scatter, gather    time.Duration
	// per-step one-sided traffic of a plain step, summed over ranks
	getBytes, putBytes, accBytes int64
	tileBytes                    int64 // bytes of one tile
	localBytes                   int64 // tile storage of the plain triple on rank 0
	cpu                          time.Duration
	window                       time.Duration // first timed step -> last
	dPlain, dABFT                *linalg.Matrix
	stepErrs                     []string
}

// selfUsage is this process's CPU time (user + system) and peak RSS so far.
func selfUsage() (cpu time.Duration, rssMiB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024
}

// densityWorld scatters fp once inside one 2-rank world and then times
// purification steps, a plain-tile step interleaved with an ABFT-tile
// step, until more(pairs, elapsed) says stop. With a tracer it records a
// density.step span per step (children: purify, and for ABFT an explicit
// audit pass) under root.
func densityWorld(fp *linalg.Matrix, tracer *Tracer, root int, more func(pairs int, elapsed time.Duration) bool) (*densityOut, error) {
	out := &densityOut{}
	var (
		errMu    sync.Mutex
		worldErr error
	)
	fail := func(err error) { // every rank sees a collective's error
		errMu.Lock()
		if worldErr == nil {
			worldErr = err
		}
		errMu.Unlock()
	}
	err := mpi.Run(densityRanks, func(c *mpi.Comm) {
		me := c.Rank()
		var tr *Tracer // rank 0 records; Purify is collective, so its view is the step
		if me == 0 {
			tr = tracer
		}
		setup := tr.Start("setup", root)
		plain := newTriple(c, false)
		ab := newTriple(c, true)
		t0 := time.Now()
		sc := tr.Start("distmat.scatter", setup)
		if err := plain.fp.ScatterDense(fp); err != nil {
			fail(err)
			return
		}
		tr.End(sc)
		if me == 0 {
			out.scatter = time.Since(t0)
		}
		if err := ab.fp.ScatterDense(fp); err != nil {
			fail(err)
			return
		}
		tr.End(setup)

		// One untimed step of each kind: fills window allocations, and the
		// plain one is where the exact per-step traffic is read.
		warm := tr.Start("warmup", root)
		g0, p0, a0 := plain.traffic()
		if _, err := plain.purify(); err != nil {
			fail(err)
			return
		}
		g1, p1, a1 := plain.traffic()
		gs, ps, as := sumRanks(c, g1-g0), sumRanks(c, p1-p0), sumRanks(c, a1-a0)
		if _, err := ab.purify(); err != nil {
			fail(err)
			return
		}
		tr.End(warm)
		if me == 0 {
			out.getBytes, out.putBytes, out.accBytes = gs, ps, as
			out.tileBytes = int64(plain.dst.BS) * int64(plain.dst.BS) * 8
			out.localBytes = plain.fp.LocalBytes() + plain.dst.LocalBytes() + plain.xsq.LocalBytes()
		}

		runtime.GC()
		cpu0, _ := selfUsage()
		start := time.Now()
		flag := []float64{1}
		for pairs := 0; flag[0] == 1; {
			for _, k := range []struct {
				t    triple
				name string
				into *[]float64
			}{{plain, "distmat.purify", &out.plain}, {ab, "distmat.purify_abft", &out.abft}} {
				c.Barrier()
				id := tr.Start("density.step", root)
				p := tr.Start(k.name, id)
				t0 := time.Now()
				st, err := k.t.purify()
				d := time.Since(t0)
				tr.End(p)
				if tracer != nil && k.t.dst.ABFT() && err == nil {
					// Purify audits parity inside every sweep; one more
					// (collective) pass, spanned from here, prices one audit.
					a := tr.Start("distmat.audit", id)
					ta := time.Now()
					_, err = k.t.dst.AuditParity()
					if me == 0 {
						out.audit = append(out.audit, time.Since(ta).Seconds())
					}
					tr.End(a)
				}
				if me == 0 {
					*k.into = append(*k.into, d.Seconds())
					out.sweeps = st.Sweeps
					if err != nil {
						out.stepErrs = append(out.stepErrs, err.Error())
					} else if !st.Converged {
						out.stepErrs = append(out.stepErrs, "purification did not converge")
					}
				}
				tr.End(id)
			}
			pairs++
			if me == 0 {
				out.window = time.Since(start)
				if !more(pairs, out.window) {
					flag[0] = 0
				}
			}
			c.Bcast(0, flag)
		}
		if me == 0 {
			cpu1, _ := selfUsage()
			out.cpu = cpu1 - cpu0
		}

		t0 = time.Now()
		gsp := tr.Start("distmat.gather", root)
		dP, err := plain.dst.GatherVerified()
		tr.End(gsp)
		if me == 0 {
			out.gather = time.Since(t0)
		}
		if err != nil {
			fail(err)
			return
		}
		dA, err := ab.dst.GatherVerified()
		if err != nil {
			fail(err)
			return
		}
		if me == 0 {
			out.dPlain, out.dABFT = dP, dA
		}
	})
	if err != nil {
		return nil, err
	}
	if worldErr != nil {
		return nil, worldErr
	}
	return out, nil
}

// purify runs one density step on the triple.
func (t triple) purify() (distmat.PurifyStats, error) {
	return distmat.Purify(t.dst, t.fp, t.xsq, densityNocc, densityTol, densitySweep)
}

// sumRanks adds v across ranks.
func sumRanks(c *mpi.Comm, v int64) int64 {
	buf := []float64{float64(v)}
	c.AllreduceSumInPlace(buf)
	return int64(buf[0])
}

// checkDensity applies the correctness check to a gathered D' = 2X:
// X idempotent to 1e-9 (Frobenius), tr X = nocc to 1e-8, and equal to the
// dense SP2 reference to 1e-9.
func checkDensity(d, ref *linalg.Matrix, nocc int) error {
	x := d.Clone()
	x.Scale(0.5)
	x2 := linalg.Mul(x, x)
	idem := 0.0
	for i, v := range x.Data {
		e := x2.Data[i] - v
		idem += e * e
	}
	if idem = math.Sqrt(idem); !(idem <= 1e-9) {
		return fmt.Errorf("density not idempotent: ||X^2-X||_F = %.3e > 1e-9", idem)
	}
	if te := math.Abs(x.Trace() - float64(nocc)); !(te <= 1e-8) {
		return fmt.Errorf("density trace off by %.3e > 1e-8", te)
	}
	if diff := d.MaxAbsDiff(ref); !(diff <= 1e-9) {
		return fmt.Errorf("density differs from the dense SP2 reference by %.3e > 1e-9", diff)
	}
	return nil
}

// timeDensitySetup times generate + world start + scatter once.
func timeDensitySetup(seed int64) (time.Duration, error) {
	t0 := time.Now()
	fp := syntheticGappedFock(densityN, densityNocc, seed)
	var scErr error
	err := mpi.Run(densityRanks, func(c *mpi.Comm) {
		t := newTriple(c, false)
		if err := t.fp.ScatterDense(fp); err != nil && c.Rank() == 0 {
			scErr = err
		}
	})
	if err == nil {
		err = scErr
	}
	return time.Since(t0), err
}

// densityChecks runs the correctness check on both gathered densities
// and folds step errors in; every timed step is one attempted operation.
func densityChecks(res *runResult, out *densityOut, fp *linalg.Matrix) (sp2dense time.Duration) {
	res.Attempted += len(out.plain) + len(out.abft)
	for _, e := range out.stepErrs {
		res.fail("purify step: %s", e)
	}
	t0 := time.Now()
	ref, _, err := distmat.SP2Dense(fp, densityNocc, densityTol, densitySweep)
	sp2dense = time.Since(t0)
	res.Attempted += 2
	if err != nil {
		res.fail("dense SP2 reference: %v", err)
		res.fail("dense SP2 reference: %v", err)
		return sp2dense
	}
	if err := checkDensity(out.dPlain, ref, densityNocc); err != nil {
		res.fail("plain tiles: %v", err)
	}
	if err := checkDensity(out.dABFT, ref, densityNocc); err != nil {
		res.fail("ABFT tiles: %v", err)
	}
	return sp2dense
}

// runDensity measures the density workload end to end.
func runDensity(seed int64, seconds float64) (*runResult, error) {
	res := newRunResult(wlDensity)
	setup, err := repeatSetup(func() (time.Duration, error) { return timeDensitySetup(seed) })
	if err != nil {
		return nil, err
	}
	fp := syntheticGappedFock(densityN, densityNocc, seed)
	out, err := densityWorld(fp, nil, 0, func(_ int, elapsed time.Duration) bool {
		return elapsed.Seconds() < seconds
	})
	if err != nil {
		return nil, err
	}
	_, rss := selfUsage()
	densityChecks(res, out, fp)
	steps := float64(len(out.plain) + len(out.abft))
	res.set("setup_s", median(setup), len(setup))
	res.set("time_to_solution_s", median(out.plain), len(out.plain))
	res.set("throughput_per_s", steps/out.window.Seconds(), int(steps))
	res.set("cpu_s", out.cpu.Seconds()/steps, int(steps))
	res.set("peak_rss_mb", rss, 1)
	return res, nil
}

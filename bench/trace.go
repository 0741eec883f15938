package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/fock"
	"repro/internal/jobs"
	"repro/internal/stats"
)

// The traced run. It re-runs each workload's computation in this
// process, composed from the layers' public constructors and entry
// points, with a span at each boundary, and adds the layer probes. The
// end-to-end metrics are never taken from here.

// runTraced performs the traced per-layer run of one workload.
func runTraced(e *benchEnv, workload string, ref *reference, seed int64) (*runResult, error) {
	switch workload {
	case wlDensity:
		return traceDensity(e, seed)
	case wlServe:
		return traceServe(e, ref, seed)
	}
	return traceSCF(e, scfWorkloads[workload], ref, seed)
}

// finishTrace writes the spans and records the harness metrics every
// traced workload shares: the traced wall, the tracing overhead (sameWork
// is the part of the traced wall spent on what the untraced run also
// did) and the unattributed share (the root span's own self time). It
// returns the self times by span name and their total, for the workload's
// share metrics.
func finishTrace(res *runResult, e *benchEnv, tr *Tracer, traced, sameWork, untraced time.Duration) (map[string]int64, int64, error) {
	spans := tr.Spans()
	path, err := writeTrace(traceDir(e.root), res.Workload, spans)
	if err != nil {
		return nil, 0, err
	}
	res.TracePath = path
	byName, total := selfByName(spans)
	res.set("trace.wall_s", traced.Seconds(), 1)
	res.set("trace.overhead_ratio", sameWork.Seconds()/untraced.Seconds(), 1)
	res.set("trace.unattributed_share", share(byName["workload"], total), 1)
	fmt.Printf("self time by span, share of the traced wall (%s):\n", res.Workload)
	for _, name := range sortedKeys(byName) {
		label := name
		if name == "workload" {
			label = "unattributed"
		}
		fmt.Printf("  %-24s %10.4f s  %6.2f%%\n", label, float64(byName[name])/1e9, 100*share(byName[name], total))
	}
	return byName, total, nil
}

func share(part, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total)
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// traceSCF is the traced run of an SCF workload.
func traceSCF(e *benchEnv, w scfWorkload, ref *reference, seed int64) (*runResult, error) {
	res := newRunResult(w.name)
	refE, ok := ref.SCF[w.name]
	if !ok {
		return nil, fmt.Errorf("bench: no reference energy for %s", w.name)
	}
	mol, err := w.molecule(e.root)
	if err != nil {
		return nil, err
	}

	// Set-up, by constructor.
	samples, parts, err := measureSCFSetup(mol, w.basis)
	if err != nil {
		return nil, err
	}
	pick := func(f func(scfSetup) time.Duration) float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s).Seconds()
		}
		return median(xs)
	}
	res.set("basis.build_ms", 1e3*pick(func(s scfSetup) time.Duration { return s.basisBuild }), len(samples))
	res.set("integrals.oneelec_s", pick(func(s scfSetup) time.Duration { return s.oneElec }), len(samples))
	res.set("integrals.schwarz_s", pick(func(s scfSetup) time.Duration { return s.schwarz }), len(samples))
	res.set("integrals.paircache_s", pick(func(s scfSetup) time.Duration { return s.pairCache }), len(samples))
	res.set("integrals.paircache_mb", float64(parts.cache.Bytes())/(1<<20), 1)

	nbf := parts.bas.NumBF
	if err := layerProbes(res, e, nbf*nbf, nbf, seed); err != nil {
		return nil, err
	}

	// The composition, untraced then traced.
	checkEnergy := func(what string, energy float64, converged bool) {
		res.Attempted++
		if d := math.Abs(energy - refE); !converged || !(d <= ref.ToleranceHa) {
			res.fail("%s: converged=%v, energy %.10f vs reference %.10f (|d| = %.3e Ha)", what, converged, energy, refE, d)
		}
	}
	plain, _, untraced, err := scfRun(w, e.root, nil)
	if err != nil {
		return nil, err
	}
	checkEnergy("untraced in-process SCF", plain.Energy, plain.Converged)
	tr := newTracer(w.name)
	scfRes, parts, traced, err := scfRun(w, e.root, tr)
	if err != nil {
		return nil, err
	}
	checkEnergy("traced in-process SCF", scfRes.Energy, scfRes.Converged)
	byName, total, err := finishTrace(res, e, tr, traced, traced, untraced)
	if err != nil {
		return nil, err
	}
	var fockNS, runNS int64
	for _, s := range tr.Spans() {
		switch s.Name {
		case "fock.build":
			fockNS += s.End - s.Start
		case "scf.run":
			runNS = s.End - s.Start
		}
	}
	res.set("trace.share.setup", share(byName["setup"]+byName["basis.build"]+byName["integrals.schwarz"]+byName["integrals.paircache"], total), 1)
	res.set("trace.share.integrals_eri", share(byName["integrals.eri"], total), 1)
	res.set("trace.share.fock_walk_digest", share(byName["fock.build"], total), 1)
	res.set("trace.share.scf_nonfock", share(byName["scf.run"], total), 1)
	res.set("scf.iterations", float64(scfRes.Iterations), 1)
	res.set("scf.nonfock_s", float64(byName["scf.run"])/1e9, 1)
	res.set("scf.fock_share", share(fockNS, runNS), 1)

	// The kernel over the workload's whole surviving quartet list. The
	// walk is repeated: its time is a median; its allocation counts are
	// the minimum (anything else the runtime allocates meanwhile only
	// adds) divided down to whole allocations and bytes per quartet, the
	// way testing.AllocsPerRun reports, so they repeat exactly.
	const walks = 3
	var quartets int64
	var walkNS []float64
	mallocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for i := 0; i < walks; i++ {
		q, wall, m, b := quartetWalk(parts)
		quartets = q
		walkNS = append(walkNS, float64(wall.Nanoseconds())/float64(q))
		mallocs, bytes = min(mallocs, m), min(bytes, b)
	}
	res.set("integrals.eri_ns_per_quartet", median(walkNS), walks)
	res.set("integrals.eri_allocs_per_quartet", float64(mallocs/uint64(quartets)), int(quartets))
	res.set("integrals.eri_bytes_per_quartet", float64(bytes/uint64(quartets)), int(quartets))
	res.set("integrals.prim_quartets_per_build", float64(primQuartets(parts)), 1)

	// Fock builds on the fixed reference density (the converged one).
	d := scfRes.D
	const baselineReps, presetRounds = 3, 5
	var base, kernelShare, digestNS, allocMB, allocs []float64
	var serial fock.Stats
	for r := 0; r < baselineReps; r++ {
		sec, st, kernel, m, b, err := fockBuild(parts, d, w.alg, 1, 1, true)
		if err != nil {
			return nil, err
		}
		serial = st
		base = append(base, sec)
		kernelShare = append(kernelShare, kernel.Seconds()/sec)
		digestNS = append(digestNS, (sec-kernel.Seconds())*1e9/float64(st.QuartetsComputed))
		allocMB = append(allocMB, float64(b)/(1<<20))
		allocs = append(allocs, float64(m))
	}
	res.set("fock.quartets_computed", float64(serial.QuartetsComputed), 1)
	res.set("fock.quartets_screened", float64(serial.QuartetsScreened), 1)
	res.set("fock.screen_ratio", float64(serial.QuartetsScreened)/float64(serial.QuartetsComputed+serial.QuartetsScreened), 1)
	res.set("fock.build_1x1_s", median(base), len(base))
	res.set("fock.kernel_share", median(kernelShare), len(kernelShare))
	res.set("fock.digest_ns_per_quartet", median(digestNS), len(digestNS))
	res.set("fock.alloc_mb_per_build", median(allocMB), len(allocMB))
	res.set("fock.allocs_per_build", median(allocs), len(allocs))

	type preset struct {
		alg            string
		ranks, threads int
		metric         string
	}
	presets := []preset{{w.alg, w.ranks, w.threads, "fock.build_s"}}
	if w.name == wlBenzene {
		// The paper's Fig. 4 single-node ordering; shared-fock 1x2 is the
		// workload's own preset, so its samples serve both names.
		presets = append(presets,
			preset{"mpi-only", 2, 1, "fock.build_s.mpi-only"},
			preset{"private-fock", 1, 2, "fock.build_s.private-fock"})
	}
	times := map[string][]float64{}
	for round := 0; round < presetRounds; round++ { // interleaved, so drift is shared
		for _, p := range presets {
			sec, st, _, _, _, err := fockBuild(parts, d, p.alg, p.ranks, p.threads, false)
			if err != nil {
				return nil, err
			}
			times[p.metric] = append(times[p.metric], sec)
			// Every preset must evaluate exactly the quartets the
			// single-rank build does (the screened count is per preset:
			// shared-fock skips whole ij pairs before counting).
			res.Attempted++
			if st.QuartetsComputed != serial.QuartetsComputed {
				res.fail("%s %dx%d computed %d quartets, the 1x1 %s build %d",
					p.alg, p.ranks, p.threads, st.QuartetsComputed, w.alg, serial.QuartetsComputed)
			}
		}
	}
	for _, p := range presets {
		res.set(p.metric, median(times[p.metric]), presetRounds)
	}
	if w.name == wlBenzene {
		res.set("fock.build_s."+w.alg, median(times["fock.build_s"]), presetRounds)
	}
	res.set("fock.parallel_eff", stats.ParallelEfficiency(median(base), 1, median(times["fock.build_s"]), w.ranks*w.threads), 1)

	// Program-reported counts, from hfrun's own telemetry registry.
	draws, msgs, sent, out, err := programCounts(e, w)
	res.Attempted++
	if err == nil {
		err = checkSCF(out, refE, ref.ToleranceHa)
	}
	if err != nil {
		res.fail("hfrun -metrics: %v", err)
	}
	res.set("ddi.dlb_draws_per_scf", draws, 1)
	res.set("mpi.msgs_per_scf", msgs, 1)
	res.set("mpi.bytes_per_scf", sent, 1)
	return res, nil
}

// traceDensity is the traced run of the density workload.
func traceDensity(e *benchEnv, seed int64) (*runResult, error) {
	res := newRunResult(wlDensity)
	if err := layerProbes(res, e, 1, densityN, seed); err != nil {
		return nil, err
	}
	fp := syntheticGappedFock(densityN, densityNocc, seed)
	const pairs = 20
	enough := func(done int, _ time.Duration) bool { return done < pairs }

	t0 := time.Now()
	if _, err := densityWorld(fp, nil, 0, enough); err != nil {
		return nil, err
	}
	untraced := time.Since(t0)
	tr := newTracer(wlDensity)
	t0 = time.Now()
	top := tr.Start("workload", 0)
	out, err := densityWorld(fp, tr, top, enough)
	tr.End(top)
	traced := time.Since(t0)
	if err != nil {
		return nil, err
	}
	// The traced world also runs one explicit audit per ABFT step, work
	// the untraced world does not do; the overhead ratio compares the rest.
	var audits time.Duration
	for _, a := range out.audit {
		audits += time.Duration(a * 1e9)
	}
	byName, total, err := finishTrace(res, e, tr, traced, traced-audits, untraced)
	if err != nil {
		return nil, err
	}
	res.set("trace.share.setup", share(byName["setup"]+byName["distmat.scatter"]+byName["warmup"], total), 1)
	res.set("trace.share.purify", share(byName["distmat.purify"]+byName["distmat.purify_abft"], total), 1)
	res.set("trace.share.audit", share(byName["distmat.audit"], total), 1)

	sp2dense := densityChecks(res, out, fp)
	ratios := make([]float64, len(out.plain))
	for i := range ratios {
		ratios[i] = out.abft[i] / out.plain[i]
	}
	flops := float64(out.sweeps) * 2 * math.Pow(densityN, 3)
	res.set("distmat.purify_abft_s", median(out.abft), len(out.abft))
	res.set("distmat.abft_overhead_ratio", median(ratios), len(ratios))
	res.set("distmat.sp2_sweeps", float64(out.sweeps), 1)
	res.set("distmat.tile_gets_per_step", float64(out.getBytes)/float64(out.tileBytes), 1)
	res.set("distmat.tile_puts_per_step", float64(out.putBytes)/float64(out.tileBytes), 1)
	res.set("distmat.tile_accs_per_step", float64(out.accBytes)/float64(out.tileBytes), 1)
	res.set("distmat.bytes_moved_per_step", float64(out.getBytes+out.putBytes+out.accBytes), 1)
	res.set("distmat.flops_per_step", flops, 1)
	res.set("distmat.gflops", flops/median(out.plain)/1e9, len(out.plain))
	res.set("distmat.scatter_ms", 1e3*out.scatter.Seconds(), 1)
	res.set("distmat.gather_ms", 1e3*out.gather.Seconds(), 1)
	res.set("distmat.sp2dense_s", sp2dense.Seconds(), 1)
	res.set("distmat.local_bytes_per_rank", float64(out.localBytes), 1)
	return res, nil
}

// traceServe is the traced run of the serve workload.
func traceServe(e *benchEnv, ref *reference, seed int64) (*runResult, error) {
	res := newRunResult(wlServe)
	if err := layerProbes(res, e, 7*7, 7, seed); err != nil { // the hot set's first spec, water/STO-3G, has 7 functions
		return nil, err
	}
	srv, err := e.startServer("trace")
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	warm := warmHot(srv.base)
	checkServed(res, ref, warm)

	const perPhase = 1200
	gen := newRequestGen(seed)
	phase := func(sent int, _ time.Duration) bool { return sent < perPhase }
	recsU, untraced := closedLoop(srv.base, gen, nil, 0, phase)
	tr := newTracer(wlServe)
	top := tr.Start("workload", 0)
	recsT, traced := closedLoop(srv.base, gen, tr, top, phase)
	tr.End(top)
	recs := append(recsU, recsT...)
	checkServed(res, ref, recs)
	walBytes := dirBytes(srv.walDir)
	drain := stopServer(res, srv)

	byName, total, err := finishTrace(res, e, tr, traced, traced, untraced)
	if err != nil {
		return nil, err
	}
	res.set("trace.share.post", share(byName["service.post"], total), 1)
	res.set("trace.share.poll", share(byName["service.poll"], total), 1)

	l := splitLatencies(recs)
	if len(l.miss) == 0 || len(l.hit) == 0 {
		return nil, fmt.Errorf("bench: serve trace saw %d misses and %d hits in %d requests (first failures: %v)", len(l.miss), len(l.hit), len(recs), res.Failures)
	}
	ms := func(xs []float64, p float64) float64 { return 1e3 * percentile(xs, p) }
	missP50 := 1e3 * median(l.miss)
	res.set("service.miss_p50_ms", missP50, len(l.miss))
	if tailSupported(len(l.miss), 95) {
		res.set("service.miss_p95_ms", ms(l.miss, 95), len(l.miss))
		res.set("service.miss_p95_over_p50", ms(l.miss, 95)/missP50, len(l.miss))
	} else {
		res.set("service.miss_p95_over_p50", 0, len(l.miss))
	}
	res.set("service.submit_p50_ms", 1e3*median(l.missPost), len(l.missPost))
	res.set("service.hit_p50_ms", 1e3*median(l.hit), len(l.hit))
	if tailSupported(len(l.hit), 99) {
		res.set("service.hit_p99_ms", ms(l.hit, 99), len(l.hit))
	}
	res.set("service.cache_hit_ratio", float64(len(l.hit))/float64(len(l.hit)+len(l.miss)), len(recs))
	res.set("service.polls_per_miss", float64(l.polls)/float64(len(l.miss)), len(l.miss))
	res.set("service.rejected_429", float64(l.busy), len(recs))
	jobsDone := len(recs) + len(warm)
	res.set("service.server_cpu_ms_per_job", 1e3*srv.usage.cpu.Seconds()/float64(jobsDone), jobsDone)
	res.set("service.drain_s", drain.Seconds(), 1)
	accepted := len(l.miss) + len(warm)
	res.set("jobs.wal_bytes_per_job", float64(walBytes)/float64(accepted), accepted)

	// The same miss specs through the job runner alone, no HTTP, no queue.
	var runMS []float64
	for _, r := range requestList(seed, 5*blockRequests) {
		if r.hot >= 0 {
			continue
		}
		var spec jobs.Spec
		if err := json.Unmarshal(r.body, &spec); err != nil {
			return nil, err
		}
		t0 := time.Now()
		outc, err := jobs.Runner{}.RunOnce(context.Background(), spec)
		runMS = append(runMS, 1e3*time.Since(t0).Seconds())
		res.Attempted++
		if err != nil || !outc.Converged {
			res.fail("jobs.Runner.RunOnce: %v", err)
		}
	}
	res.set("jobs.run_p50_ms", median(runMS), len(runMS))
	res.set("service.miss_overhead_ms", missP50-median(runMS), len(l.miss))
	return res, nil
}

package main

// The benchmark's vocabulary: workloads and metrics, by name. Everything
// the harness prints, BENCHMARK.json declares and -compare gates comes
// from these tables (names_test.go holds BENCHMARK.json to them).

// Workload names.
const (
	wlBenzene = "benzene_shared"
	wlDimer   = "dimer_d_private"
	wlDensity = "density_n256"
	wlServe   = "serve_mixed"
)

// workloadNames lists the workloads in presentation order.
var workloadNames = []string{wlBenzene, wlDimer, wlDensity, wlServe}

// Metric describes one reported number.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Exact marks a count that must repeat bit-for-bit on any machine.
	Exact bool
	// On lists the workloads the metric is measured on; nil means all.
	On []string
}

// on reports whether the metric is measured on workload w.
func (m Metric) on(w string) bool {
	if m.On == nil {
		return true
	}
	for _, x := range m.On {
		if x == w {
			return true
		}
	}
	return false
}

// timeUnits are the units of measured durations. A duration that a
// workload does not exercise has no honest value, so such a metric stays
// out of the contract list (see contractPerLayer).
var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true}

var (
	scfOnly     = []string{wlBenzene, wlDimer}
	benzeneOnly = []string{wlBenzene}
	densityOnly = []string{wlDensity}
	serveOnly   = []string{wlServe}
)

// endToEnd are the numbers a user of hfrun / hfserve / the density step
// sees. Every one is defined on every workload (the per-workload meaning
// of "solution" is in README.md).
var endToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "time_to_solution_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayer are the numbers of single layers, from the traced run. The
// prefix is the module (layer) name.
var perLayer = []Metric{
	// basis / integrals
	{Name: "basis.build_ms", Unit: "ms", Better: "lower", On: scfOnly},
	{Name: "integrals.oneelec_s", Unit: "s", Better: "lower", On: scfOnly},
	{Name: "integrals.schwarz_s", Unit: "s", Better: "lower", On: scfOnly},
	{Name: "integrals.paircache_s", Unit: "s", Better: "lower", On: scfOnly},
	{Name: "integrals.paircache_mb", Unit: "MB", Better: "lower", On: scfOnly},
	{Name: "integrals.eri_ns_per_quartet", Unit: "ns", Better: "lower", On: scfOnly},
	{Name: "integrals.eri_allocs_per_quartet", Unit: "count", Better: "lower", Exact: true, On: scfOnly},
	{Name: "integrals.eri_bytes_per_quartet", Unit: "bytes", Better: "lower", Exact: true, On: scfOnly},
	{Name: "integrals.prim_quartets_per_build", Unit: "count", Better: "lower", Exact: true, On: scfOnly},
	{Name: "integrals.eri_ns.ssss", Unit: "ns", Better: "lower"},
	{Name: "integrals.eri_ns.slsl", Unit: "ns", Better: "lower"},
	{Name: "integrals.eri_ns.llll", Unit: "ns", Better: "lower"},
	{Name: "integrals.eri_ns.lldd", Unit: "ns", Better: "lower"},
	{Name: "integrals.eri_ns.dddd", Unit: "ns", Better: "lower"},
	{Name: "integrals.eri_allocs.ssss", Unit: "count", Better: "lower", Exact: true},
	{Name: "integrals.eri_allocs.slsl", Unit: "count", Better: "lower", Exact: true},
	{Name: "integrals.eri_allocs.llll", Unit: "count", Better: "lower", Exact: true},
	{Name: "integrals.eri_allocs.lldd", Unit: "count", Better: "lower", Exact: true},
	{Name: "integrals.eri_allocs.dddd", Unit: "count", Better: "lower", Exact: true},
	// fock
	{Name: "fock.quartets_computed", Unit: "count", Better: "lower", Exact: true, On: scfOnly},
	{Name: "fock.quartets_screened", Unit: "count", Better: "higher", Exact: true, On: scfOnly},
	{Name: "fock.screen_ratio", Unit: "ratio", Better: "higher", On: scfOnly},
	{Name: "fock.build_s", Unit: "s", Better: "lower", On: scfOnly},
	{Name: "fock.build_1x1_s", Unit: "s", Better: "lower", On: scfOnly},
	{Name: "fock.parallel_eff", Unit: "ratio", Better: "higher", On: scfOnly},
	{Name: "fock.kernel_share", Unit: "ratio", Better: "lower", On: scfOnly},
	{Name: "fock.digest_ns_per_quartet", Unit: "ns", Better: "lower", On: scfOnly},
	{Name: "fock.alloc_mb_per_build", Unit: "MB", Better: "lower", On: scfOnly},
	{Name: "fock.allocs_per_build", Unit: "count", Better: "lower", On: scfOnly},
	{Name: "fock.build_s.mpi-only", Unit: "s", Better: "lower", On: benzeneOnly},
	{Name: "fock.build_s.private-fock", Unit: "s", Better: "lower", On: benzeneOnly},
	{Name: "fock.build_s.shared-fock", Unit: "s", Better: "lower", On: benzeneOnly},
	// omp
	{Name: "omp.for_dispatch_ns", Unit: "ns", Better: "lower"},
	// ddi
	{Name: "ddi.dlb_draw_ns", Unit: "ns", Better: "lower"},
	{Name: "ddi.dlb_draw_contended_ns", Unit: "ns", Better: "lower"},
	{Name: "ddi.dlb_draws_per_scf", Unit: "count", Better: "lower", Exact: true, On: scfOnly},
	// mpi (+ integrity framing)
	{Name: "mpi.world_start_us", Unit: "us", Better: "lower"},
	{Name: "mpi.allreduce_us", Unit: "us", Better: "lower"},
	{Name: "mpi.allreduce_unverified_us", Unit: "us", Better: "lower"},
	{Name: "mpi.barrier_us", Unit: "us", Better: "lower"},
	{Name: "mpi.msgs_per_scf", Unit: "count", Better: "lower", Exact: true, On: scfOnly},
	{Name: "mpi.bytes_per_scf", Unit: "bytes", Better: "lower", Exact: true, On: scfOnly},
	// linalg / scf
	{Name: "linalg.eigensym_ms", Unit: "ms", Better: "lower"},
	{Name: "linalg.matmul_n256_ms", Unit: "ms", Better: "lower"},
	{Name: "scf.iterations", Unit: "count", Better: "lower", Exact: true, On: scfOnly},
	{Name: "scf.nonfock_s", Unit: "s", Better: "lower", On: scfOnly},
	{Name: "scf.fock_share", Unit: "ratio", Better: "lower", On: scfOnly},
	// distmat
	{Name: "distmat.purify_abft_s", Unit: "s", Better: "lower", On: densityOnly},
	{Name: "distmat.abft_overhead_ratio", Unit: "ratio", Better: "lower", On: densityOnly},
	{Name: "distmat.sp2_sweeps", Unit: "count", Better: "lower", Exact: true, On: densityOnly},
	{Name: "distmat.tile_gets_per_step", Unit: "count", Better: "lower", Exact: true, On: densityOnly},
	{Name: "distmat.tile_puts_per_step", Unit: "count", Better: "lower", Exact: true, On: densityOnly},
	{Name: "distmat.tile_accs_per_step", Unit: "count", Better: "lower", Exact: true, On: densityOnly},
	{Name: "distmat.bytes_moved_per_step", Unit: "bytes", Better: "lower", Exact: true, On: densityOnly},
	{Name: "distmat.flops_per_step", Unit: "count", Better: "lower", Exact: true, On: densityOnly},
	{Name: "distmat.gflops", Unit: "GF/s", Better: "higher", On: densityOnly},
	{Name: "distmat.scatter_ms", Unit: "ms", Better: "lower", On: densityOnly},
	{Name: "distmat.gather_ms", Unit: "ms", Better: "lower", On: densityOnly},
	{Name: "distmat.sp2dense_s", Unit: "s", Better: "lower", On: densityOnly},
	{Name: "distmat.local_bytes_per_rank", Unit: "bytes", Better: "lower", Exact: true, On: densityOnly},
	// jobs / service
	{Name: "jobs.hash_ns", Unit: "ns", Better: "lower"},
	{Name: "jobs.hash_allocs", Unit: "count", Better: "lower", Exact: true},
	{Name: "jobs.queue_submit_claim_ns", Unit: "ns", Better: "lower"},
	{Name: "jobs.cache_get_ns", Unit: "ns", Better: "lower"},
	{Name: "jobs.wal_append_us", Unit: "us", Better: "lower"},
	{Name: "jobs.wal_append_nosync_us", Unit: "us", Better: "lower"},
	{Name: "jobs.wal_bytes_per_job", Unit: "bytes", Better: "lower", On: serveOnly},
	{Name: "jobs.run_p50_ms", Unit: "ms", Better: "lower", On: serveOnly},
	{Name: "service.miss_overhead_ms", Unit: "ms", Better: "lower", On: serveOnly},
	{Name: "service.submit_p50_ms", Unit: "ms", Better: "lower", On: serveOnly},
	{Name: "service.miss_p50_ms", Unit: "ms", Better: "lower", On: serveOnly},
	{Name: "service.miss_p95_ms", Unit: "ms", Better: "lower", On: serveOnly},
	{Name: "service.miss_p95_over_p50", Unit: "ratio", Better: "lower", On: serveOnly},
	{Name: "service.hit_p50_ms", Unit: "ms", Better: "lower", On: serveOnly},
	{Name: "service.hit_p99_ms", Unit: "ms", Better: "lower", On: serveOnly},
	{Name: "service.cache_hit_ratio", Unit: "ratio", Better: "higher", On: serveOnly},
	{Name: "service.polls_per_miss", Unit: "count", Better: "lower", On: serveOnly},
	{Name: "service.rejected_429", Unit: "count", Better: "lower", On: serveOnly},
	{Name: "service.server_cpu_ms_per_job", Unit: "ms", Better: "lower", On: serveOnly},
	{Name: "service.drain_s", Unit: "s", Better: "lower", On: serveOnly},
	// harness: where the traced wall went, as shares of it
	{Name: "trace.wall_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.share.setup", Unit: "ratio", Better: "lower", On: []string{wlBenzene, wlDimer, wlDensity}},
	{Name: "trace.share.integrals_eri", Unit: "ratio", Better: "lower", On: scfOnly},
	{Name: "trace.share.fock_walk_digest", Unit: "ratio", Better: "lower", On: scfOnly},
	{Name: "trace.share.scf_nonfock", Unit: "ratio", Better: "lower", On: scfOnly},
	{Name: "trace.share.purify", Unit: "ratio", Better: "lower", On: densityOnly},
	{Name: "trace.share.audit", Unit: "ratio", Better: "lower", On: densityOnly},
	{Name: "trace.share.post", Unit: "ratio", Better: "lower", On: serveOnly},
	{Name: "trace.share.poll", Unit: "ratio", Better: "lower", On: serveOnly},
}

// contractPerLayer is the subset of perLayer declared in BENCHMARK.json:
// the driver requires every declared per-layer metric from the traced run
// of EVERY workload. A count, ratio or size of a layer that a workload
// does not exercise is honestly 0 there; a duration is not, so a timing
// is declared only when it is measured on all workloads. The rest are
// printed and written to the results file on their own workloads only.
func contractPerLayer() []Metric {
	var out []Metric
	for _, m := range perLayer {
		if m.On == nil || !timeUnits[m.Unit] {
			out = append(out, m)
		}
	}
	return out
}

func findMetric(name string) (Metric, bool) {
	for _, list := range [][]Metric{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Metric{}, false
}

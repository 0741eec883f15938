// Package service is the HF-as-a-service layer: a stdlib net/http JSON
// API in front of the internal/jobs queue, a worker pool sized to a
// simulated-cluster budget, admission control with backpressure (bounded
// queue → 429 + Retry-After), per-job deadlines and cancellation threaded
// down into the SCF loop, an LRU result cache keyed by canonical content
// hash, and graceful drain on shutdown.
//
// Durability: when Config.WALDir is set, every accepted spec and every
// lifecycle transition is written to a CRC-protected, fsync'd write-ahead
// log (internal/jobs WAL) before it becomes client-visible. A restarted
// server replays the log: jobs queued or running at the crash re-enqueue,
// finished jobs dedup against their recorded results, and the result
// cache re-warms from recorded outcomes.
//
// Fleet: ConfigureFleet joins N replicas into a consistent-hash group —
// each content hash has one owning replica, non-owners forward submits
// (one hop) and fetch cached results from peers, and an unreachable
// owner degrades to local hand-off rather than an error. See fleet.go.
//
// Endpoints:
//
//	POST   /v1/jobs        submit a job (200 cached, 202 accepted, 400 bad
//	                       spec, 429 queue full / tenant quota, 503 draining)
//	GET    /v1/jobs/{id}   job status + result
//	GET    /v1/jobs        list jobs (?status=, ?limit=, ?after= pagination)
//	DELETE /v1/jobs/{id}   cancel a queued or running job
//	GET    /v1/cache/{hash} result-cache probe (200 cached, 202 in flight,
//	                       404 miss) — the intra-fleet peer-fetch path
//	GET    /v1/queue       queue depth, capacity, per-state totals
//	GET    /v1/jobs/{id}/trace  stitched per-job waterfall (queue wait,
//	                       lookup, run, per-iteration/per-build spans)
//	GET    /v1/debug/flight last flight-recorder dump (404 before any)
//	GET    /healthz        liveness (always 200 while the process serves)
//	GET    /readyz         readiness (503 draining/killed; replica ID, WAL
//	                       segments, queue depth, ring membership)
//	GET    /metrics        Prometheus text exposition (?format=json for
//	                       the registry snapshot JSON)
//
// Counter taxonomy (on the shared telemetry registry):
//
//	svc.jobs.accepted / rejected / completed / failed / canceled /
//	svc.jobs.retried / svc.jobs.coalesced    job lifecycle counts
//	svc.jobs.quota_rejected                  per-tenant admission rejections
//	svc.jobs.reenqueued                      crash backlog re-admitted at boot
//	svc.cache.hit / svc.cache.miss / svc.cache.evict   result-cache outcomes
//	svc.wal.appends / bytes / compactions    write-ahead log activity
//	svc.wal.replayed_jobs / replayed_records / corrupt_tail_bytes   boot replay
//	svc.fleet.peer_hit / forwarded / handoff intra-fleet routing outcomes
//	svc.queue.depth                          gauge + histogram (percentiles)
//	svc.pool.size / svc.pool.epoch           worker-pool gauges (see Resize)
//	svc.queue.wait_ns, svc.job.run_ns        latency histograms
//	svc.request.post_ns                      POST /v1/jobs handler latency
//	svc.trace.minted / propagated            trace IDs created vs inherited
//	svc.trace.waterfalls                     waterfall endpoint renders
//	svc.http.requests{route=,code=}          per-route/status request counts
//	obs.flight.records / obs.flight.dumps    flight-recorder activity
//	build_info{version=,go_version=,revision=}  constant-1 build stamp
//
// The runtime's performance-fault counters (chaos.* transport chaos,
// dlb.hedged/reissued/dedup_dropped straggler mitigation, ddi.lease.*
// re-issue paths) are pre-registered at construction and fed by every
// job the workers run, so /metrics always carries the full taxonomy —
// zeros included — for scrapers that alert on it.
//
// Spans: one "svc.job" span per run attempt on the DriverPid lane, tid =
// worker index, plus "svc.lookup" spans for the last-chance dedup passes.
// Every accepted submission carries a request trace ID (minted at
// ingress or inherited from the X-HF-Trace header) that the runner's
// derived telemetry session stamps into every span down to individual
// MPI operations — see internal/telemetry/tracectx.go.
package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
	"repro/internal/telemetry"
)

// Config shapes a Server: the deployment settings behind hfserve's flags.
// Zero values take the documented defaults. The 429 Retry-After clamp
// (retryAfterFloor, retryAfterCeil) and the WAL's segment size and
// compaction retention (internal/jobs) are constants.
type Config struct {
	Workers        int           // concurrent job runners; default 4 — the "cluster" budget
	QueueCap       int           // queued-job bound before 429s; default 64
	CacheSize      int           // LRU result-cache entries; default 256
	DefaultTimeout time.Duration // per-job deadline when the spec sets none; default 5m
	MaxRetries     int           // default retry budget when the spec sets none; default 1

	WALDir      string        // write-ahead log directory; "" disables durability
	WALNoSync   bool          // skip per-append fsync (tests)
	TenantQuota int           // max active (queued+running) jobs per tenant; 0 = unlimited
	AgeAfter    time.Duration // priority-aging interval; 0 disables aging
	AgeBoost    int           // effective-priority boost per AgeAfter waited
	Telemetry   *telemetry.Session
}

// serveTraceEvents is the capacity of the default session's event ring:
// about 117 resilient 2x2 water jobs of waterfall history (~280 events
// each) in ~13 MB, after which the oldest events are overwritten.
const serveTraceEvents = 1 << 15

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.Telemetry == nil {
		c.Telemetry = &telemetry.Session{Registry: telemetry.NewRegistry(),
			Recorder: telemetry.NewRecorderWithClock(time.Now, serveTraceEvents)}
	}
	return c
}

// Server is one HF-serving instance: registry of every job it has seen,
// the bounded queue, the worker pool, the result cache, and (optionally)
// a write-ahead log and a fleet membership.
type Server struct {
	cfg    Config
	tel    *telemetry.Session
	queue  *jobs.Queue
	cache  *jobs.Cache
	runner jobs.Runner
	wal    *jobs.WAL

	mu        sync.Mutex
	byID      map[string]*jobs.Job
	byHash    map[string]*jobs.Job // queued/running jobs, for in-flight coalescing
	nextID    uint64
	jobTenant map[string]string // active job ID → tenant (quota accounting)
	tenantUse map[string]int    // tenant → active job count

	fleetMu sync.Mutex
	fleet   *fleet

	execs execTracker

	recoveredPending int // jobs re-enqueued from the WAL at boot
	recoveredDone    int // terminal jobs replayed from the WAL at boot

	// Elastic worker pool (see Resize/StartAutoscaler): pool holds the
	// live worker handles and poolEpoch advances on every resize.
	poolMu     sync.Mutex
	pool       []*workerHandle
	nextWorker int
	poolEpoch  atomic.Int64
	running    atomic.Int64 // jobs currently inside runJob

	draining atomic.Bool
	killed   atomic.Bool
	workers  sync.WaitGroup
	started  atomic.Bool
	stopBg   chan struct{}
	bgOnce   sync.Once

	httpSrv *http.Server
	ln      net.Listener
}

// New returns a Server with its worker pool not yet started; call
// StartWorkers (or Start, which does both plus HTTP). When cfg.WALDir is
// set the write-ahead log is opened and replayed here: the crash backlog
// re-enqueues (bypassing the admission cap — that work was already
// acknowledged), finished jobs land terminal in the registry, and their
// outcomes re-warm the result cache.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		tel:       cfg.Telemetry,
		queue:     jobs.NewQueue(cfg.QueueCap),
		cache:     jobs.NewCache(cfg.CacheSize),
		byID:      make(map[string]*jobs.Job),
		byHash:    make(map[string]*jobs.Job),
		jobTenant: make(map[string]string),
		tenantUse: make(map[string]int),
		runner:    jobs.Runner{Telemetry: cfg.Telemetry},
		stopBg:    make(chan struct{}),
	}
	// Pre-register the full counter taxonomy so every name appears in
	// /metrics from the first scrape (zeros included).
	for _, name := range []string{
		"chaos.dups", "chaos.dups_dropped", "chaos.reorders",
		"chaos.partition_held", "chaos.slowdown.events", "chaos.slowdown_ns",
		"dlb.hedged", "dlb.reissued", "dlb.dedup_dropped",
		"ddi.lease.steals", "ddi.lease.expired",
		"svc.cache.hit", "svc.cache.miss", "svc.cache.evict",
		"svc.jobs.quota_rejected", "svc.jobs.reenqueued",
		"svc.wal.appends", "svc.wal.bytes", "svc.wal.compactions",
		"svc.wal.replayed_jobs", "svc.wal.replayed_records", "svc.wal.corrupt_tail_bytes",
		"svc.fleet.peer_hit", "svc.fleet.forwarded", "svc.fleet.handoff",
		"svc.trace.minted", "svc.trace.propagated", "svc.trace.waterfalls",
		"svc.fleet.fetch_retries",
		"obs.flight.records", "obs.flight.dumps",
		"elastic.joins.announced", "elastic.joins.committed", "elastic.joins.expired",
		"elastic.migrations", "elastic.scale_up", "elastic.scale_down",
		"distmat.get.bytes", "distmat.put.bytes", "distmat.acc.bytes",
		"distmat.purify.sweeps",
		"distmat.abft.audits", "distmat.abft.mismatches",
		"distmat.abft.repaired_tiles", "distmat.abft.parity_refreshes",
		"distmat.abft.reconstructed_tiles", "distmat.abft.parity.bytes",
	} {
		s.tel.Counter(name)
	}
	s.tel.Gauge("straggler.flagged")
	registerBuildInfo(s.tel)
	s.cache.Instrument(s.tel.Counter("svc.cache.hit"), s.tel.Counter("svc.cache.miss"),
		s.tel.Counter("svc.cache.evict"))

	if cfg.WALDir != "" {
		wal, rep, err := jobs.OpenWAL(jobs.WALOptions{
			Dir: cfg.WALDir, NoSync: cfg.WALNoSync, Tel: cfg.Telemetry,
		})
		if err != nil {
			return nil, fmt.Errorf("service: opening wal: %w", err)
		}
		s.wal = wal
		// Persist flight dumps next to the WAL so a postmortem after a
		// crash-and-replay has the pre-crash ring on disk.
		s.tel.Recorder.SetOnDump(flightPersister(cfg.WALDir))
		s.restoreFromReplay(rep)
		if s.recoveredPending > 0 {
			s.tel.Logf("svc", "wal replay re-enqueued %d jobs (restored %d terminal)",
				s.recoveredPending, s.recoveredDone)
			s.tel.DumpFlight("wal-replay")
		}
	}
	return s, nil
}

// registerBuildInfo publishes the constant-1 build_info gauge carrying
// the module version, Go toolchain, and VCS revision as labels — the
// standard Prometheus idiom for joining metrics to a build.
func registerBuildInfo(tel *telemetry.Session) {
	version, goVersion, revision := "unknown", "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		goVersion = bi.GoVersion
		if bi.Main.Version != "" {
			version = bi.Main.Version
		}
		for _, st := range bi.Settings {
			if st.Key == "vcs.revision" && st.Value != "" {
				revision = st.Value
			}
		}
	}
	tel.Gauge(fmt.Sprintf("build_info{version=%q,go_version=%q,revision=%q}",
		version, goVersion, revision)).Set(1)
}

// flightPersister returns an OnDump callback writing each flight dump as
// flight-NNNNNN.json under dir. Persistence failures are silent: a dump
// is best-effort postmortem context, never worth failing a request over.
func flightPersister(dir string) func(*telemetry.FlightDump) {
	var seq atomic.Uint64
	return func(d *telemetry.FlightDump) {
		path := filepath.Join(dir, fmt.Sprintf("flight-%06d.json", seq.Add(1)))
		f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return
		}
		_ = d.WriteJSON(f)
		_ = f.Close()
	}
}

// restoreFromReplay folds a WAL replay into the fresh server: terminal
// jobs become queryable history (outcomes re-warm the cache and count as
// pre-crash executions), non-terminal jobs re-enqueue past the admission
// cap — backpressure applies to new work, never to acknowledged work.
func (s *Server) restoreFromReplay(rep *jobs.Replay) {
	for _, rj := range rep.Jobs {
		j := jobs.RestoreJob(rj)
		s.byID[j.ID] = j
		if rj.State.Terminal() {
			s.recoveredDone++
			if rj.State == jobs.StateDone && rj.Outcome != nil {
				s.cache.Put(rj.Hash, rj.Outcome)
				s.execs.add(rj.Hash)
			}
			continue
		}
		if err := s.queue.ForceSubmit(j); err == nil {
			s.byHash[j.Hash] = j
			s.recoveredPending++
			s.tel.Counter("svc.jobs.reenqueued").Add(1)
		}
	}
	if rep.MaxID > s.nextID {
		s.nextID = rep.MaxID
	}
	s.observeDepth()
}

// RecoveredBacklog returns how many non-terminal jobs the boot-time WAL
// replay re-enqueued.
func (s *Server) RecoveredBacklog() int { return s.recoveredPending }

// RecoveredDone returns how many terminal jobs the boot-time WAL replay
// restored as queryable history.
func (s *Server) RecoveredDone() int { return s.recoveredDone }

// Telemetry returns the server's telemetry session.
func (s *Server) Telemetry() *telemetry.Session { return s.tel }

// Cache exposes the result cache (read-side: the chaos gate audits hit
// counts and warm entries).
func (s *Server) Cache() *jobs.Cache { return s.cache }

// workerHandle identifies one live worker; retired tells its loop to
// exit at the next claim boundary (never mid-job).
type workerHandle struct {
	idx     int
	retired atomic.Bool
}

// StartWorkers launches the worker pool (and the priority-aging ticker
// when configured). Idempotent.
func (s *Server) StartWorkers() {
	if s.started.Swap(true) {
		return
	}
	s.poolMu.Lock()
	for i := 0; i < s.cfg.Workers; i++ {
		s.spawnWorkerLocked()
	}
	s.poolMu.Unlock()
	s.observePool()
	if s.cfg.AgeAfter > 0 && s.cfg.AgeBoost > 0 {
		go s.agingLoop()
	}
}

// spawnWorkerLocked adds one worker to the pool (poolMu held).
func (s *Server) spawnWorkerLocked() {
	h := &workerHandle{idx: s.nextWorker}
	s.nextWorker++
	s.pool = append(s.pool, h)
	s.workers.Add(1)
	go s.workerLoop(h)
}

// WorkerCount returns the live (non-retired) worker-pool size.
func (s *Server) WorkerCount() int {
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	return len(s.pool)
}

// PoolEpoch returns the pool generation: 0 at boot, +1 per Resize.
func (s *Server) PoolEpoch() int64 { return s.poolEpoch.Load() }

// Running returns how many jobs are currently executing in workers.
func (s *Server) Running() int64 { return s.running.Load() }

// Resize grows or shrinks the worker pool to target (clamped to ≥1).
// Growth spawns workers immediately; shrink retires the newest workers
// at their next claim boundary — a mid-job worker finishes its job
// first, so no job is ever lost to a scale-down. Either way the pool
// epoch advances. Returns the pool size before and after.
func (s *Server) Resize(target int) (from, to int) {
	if target < 1 {
		target = 1
	}
	s.poolMu.Lock()
	from = len(s.pool)
	switch {
	case target > from:
		for i := from; i < target; i++ {
			s.spawnWorkerLocked()
		}
		s.tel.Counter("elastic.scale_up").Add(1)
	case target < from:
		// Retire from the tail: newest first, preserving the original
		// workers' indices for stable telemetry lanes.
		for _, h := range s.pool[target:] {
			h.retired.Store(true)
		}
		s.pool = s.pool[:target]
		s.tel.Counter("elastic.scale_down").Add(1)
	default:
		s.poolMu.Unlock()
		return from, from
	}
	s.poolMu.Unlock()
	s.poolEpoch.Add(1)
	s.queue.Kick() // wake blocked claimants so retirees re-check their flag
	s.observePool()
	s.tel.Instant("svc.submit", "pool-resize", telemetry.DriverPid, 0,
		map[string]any{"from": from, "to": target, "epoch": s.poolEpoch.Load()})
	return from, target
}

// observePool exports the pool gauges. They are svc.*, not elastic.*: a
// served elastic job's rank pool writes elastic.pool_size on the same
// registry.
func (s *Server) observePool() {
	s.tel.Gauge("svc.pool.size").Set(float64(s.WorkerCount()))
	s.tel.Gauge("svc.pool.epoch").Set(float64(s.poolEpoch.Load()))
}

// agingLoop periodically applies priority aging so low-priority jobs
// cannot starve behind a steady high-priority stream.
func (s *Server) agingLoop() {
	period := s.cfg.AgeAfter / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.stopBg:
			return
		case now := <-t.C:
			s.queue.Age(now, s.cfg.AgeAfter, s.cfg.AgeBoost)
		}
	}
}

// stopBackground closes the background-goroutine stop channel once.
func (s *Server) stopBackground() {
	s.bgOnce.Do(func() { close(s.stopBg) })
}

// Start listens on addr (host:port; port 0 picks an ephemeral one),
// starts the workers, and serves HTTP in a background goroutine. It
// returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.Handler()}
	s.StartWorkers()
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// Serve only fails fatally before Drain; nothing to do but record it.
			s.tel.Counter("svc.http.serve_errors").Add(1)
		}
	}()
	return ln.Addr().String(), nil
}

// Kill simulates a SIGKILL at this instant: the write-ahead log stops
// accepting appends (nothing after the kill reaches disk, exactly as if
// the process died), the listener hard-closes mid-connection, queued
// work is abandoned, and in-flight runs are aborted. No drain, no
// compaction, no goodbye. Recovery happens when a new Server is built
// over the same WALDir.
func (s *Server) Kill() {
	if s.killed.Swap(true) {
		return
	}
	s.wal.Disable() // first: the disk image is frozen at the kill instant
	s.draining.Store(true)
	s.stopBackground()
	s.queue.Close()
	s.mu.Lock()
	for _, j := range s.byID {
		if j.State() == jobs.StateRunning {
			j.Cancel()
		}
	}
	s.mu.Unlock()
	if s.httpSrv != nil {
		_ = s.httpSrv.Close() // hard close: no graceful connection drain
	}
}

// Killed reports whether Kill has fired.
func (s *Server) Killed() bool { return s.killed.Load() }

// Drain gracefully shuts the server down: stop accepting (healthz flips,
// POST returns 503), let workers finish the queued backlog, and — if ctx
// expires first — cancel in-flight jobs and wait for them to record
// terminal states. The HTTP listener closes after the workers exit so
// status polls keep working throughout the drain. A WAL-backed server
// compacts its log on the way out, so the next boot replays a bounded
// segment instead of the full history.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.stopBackground()
	s.queue.Close()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline: abort in-flight runs. Workers observe the canceled
		// contexts at the next SCF iteration and record Canceled states,
		// so nothing is lost — just unfinished.
		s.mu.Lock()
		for _, j := range s.byID {
			if j.State() == jobs.StateRunning {
				j.Cancel()
			}
		}
		s.mu.Unlock()
		<-done
	}
	if s.wal != nil && !s.killed.Load() {
		if err := s.wal.Compact(s.replayTable()); err == nil {
			_ = s.wal.Close()
		}
	}
	if s.httpSrv != nil {
		sdCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.httpSrv.Shutdown(sdCtx); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// replayTable renders the current job registry as WAL replay records in
// ID (acceptance) order — the input Compact rewrites the log from.
func (s *Server) replayTable() []*jobs.ReplayJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.byID))
	for id := range s.byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	table := make([]*jobs.ReplayJob, 0, len(ids))
	for _, id := range ids {
		j := s.byID[id]
		st := j.Snapshot()
		if st.Cached {
			continue // cache-hit ephemera: never WAL-logged, nothing to keep
		}
		table = append(table, &jobs.ReplayJob{
			ID: j.ID, Hash: j.Hash, Spec: j.Spec, Trace: j.Trace, State: st.State,
			Attempts: st.Attempts, Error: st.Error, Outcome: st.Result,
		})
	}
	return table
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// lookup returns the job with the given ID.
func (s *Server) lookup(id string) *jobs.Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byID[id]
}

// register stores j in the ID index (and, when active, the hash index
// plus the tenant quota accounting).
func (s *Server) register(j *jobs.Job, active bool) {
	s.mu.Lock()
	s.byID[j.ID] = j
	if active {
		s.byHash[j.Hash] = j
		tenant := j.Spec.Tenant
		s.jobTenant[j.ID] = tenant
		s.tenantUse[tenant]++
	}
	s.mu.Unlock()
}

// tenantOverQuota reports whether admitting one more job for tenant
// would exceed the per-tenant active-job quota.
func (s *Server) tenantOverQuota(tenant string) bool {
	if s.cfg.TenantQuota <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenantUse[tenant] >= s.cfg.TenantQuota
}

// activeByHash returns the queued/running job with this content hash.
func (s *Server) activeByHash(hash string) *jobs.Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byHash[hash]
}

// retireHash drops the hash index entry once j is terminal, but only if
// it still points at j (a newer submission may have replaced it), and
// releases j's tenant quota slot (idempotent: keyed by job ID).
func (s *Server) retireHash(j *jobs.Job) {
	s.mu.Lock()
	if s.byHash[j.Hash] == j {
		delete(s.byHash, j.Hash)
	}
	if tenant, ok := s.jobTenant[j.ID]; ok {
		delete(s.jobTenant, j.ID)
		if s.tenantUse[tenant] > 1 {
			s.tenantUse[tenant]--
		} else {
			delete(s.tenantUse, tenant)
		}
	}
	s.mu.Unlock()
}

// newID mints a job ID.
func (s *Server) newID() string {
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	s.mu.Unlock()
	return jobs.FmtJobID(id)
}

// observeDepth records the queue depth into both the gauge (current
// value for /metrics) and the histogram (percentiles for the loadgen
// report).
func (s *Server) observeDepth() {
	d := int64(s.queue.Len())
	s.tel.Gauge("svc.queue.depth").Set(float64(d))
	s.tel.Histogram("svc.queue.depth").Observe(d)
}

// The 429 Retry-After hint, in seconds, is clamped to
// [retryAfterFloor, retryAfterCeil] so one slow outlier cannot tell
// clients to go away for an hour.
const (
	retryAfterFloor = 1
	retryAfterCeil  = 60
)

// retryAfterSeconds derives the 429 Retry-After hint from the observed
// drain rate: p50 job wall time × queue depth / workers estimates when a
// queue slot will free. Before any job has finished (empty histogram)
// the floor applies.
func (s *Server) retryAfterSeconds() int {
	h := s.tel.Histogram("svc.job.run_ns")
	if h.Count() == 0 {
		return retryAfterFloor
	}
	p50 := time.Duration(h.Percentile(0.5))
	est := p50 * time.Duration(s.queue.Len()+1) / time.Duration(s.cfg.Workers)
	secs := int((est + time.Second - 1) / time.Second)
	return min(max(secs, retryAfterFloor), retryAfterCeil)
}

// jobTimeout resolves the per-job deadline.
func (s *Server) jobTimeout(spec jobs.Spec) time.Duration {
	if spec.TimeoutMS > 0 {
		return time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	return s.cfg.DefaultTimeout
}

// jobRetries resolves the per-job retry budget.
func (s *Server) jobRetries(spec jobs.Spec) int {
	if spec.MaxRetries > 0 {
		return spec.MaxRetries
	}
	return s.cfg.MaxRetries
}

// workerLoop claims and runs jobs until the queue closes and drains, or
// the worker is retired by a scale-down (checked only between jobs — a
// retiree finishes its current job first).
func (s *Server) workerLoop(h *workerHandle) {
	defer s.workers.Done()
	for {
		j := s.queue.ClaimUntil(&h.retired)
		if j == nil {
			return
		}
		if s.killed.Load() {
			return // the process is "dead": abandon the claim mid-air
		}
		s.observeDepth()
		s.running.Add(1)
		s.runJob(h.idx, j)
		s.running.Add(-1)
	}
}

// recordDone persists then applies a successful completion: WAL first
// (durability), then the FSM transition (client visibility), then the
// cache. executed says whether this replica actually paid for the SCF
// run (false for peer-fetched results), feeding the exactly-once audit.
func (s *Server) recordDone(j *jobs.Job, out *jobs.Outcome, executed bool) {
	now := time.Now()
	_ = s.wal.AppendState(j.ID, jobs.StateDone, j.Attempts(), "", out, now)
	if mkErr := j.MarkDone(out, now); mkErr == nil {
		s.cache.Put(j.Hash, out)
		s.tel.Counter("svc.jobs.completed").Add(1)
		if executed {
			s.execs.add(j.Hash)
		}
	}
	s.retireHash(j)
}

// runJob executes one claimed job through the FSM: one attempt, then
// either Done, a bounded-retry requeue, or a terminal Failed/Canceled.
// Before paying for an SCF run it makes a last-chance dedup pass — the
// local cache, then every fleet peer — because an identical job may have
// finished elsewhere between admission and claim.
func (s *Server) runJob(worker int, j *jobs.Job) {
	now := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), s.jobTimeout(j.Spec))
	defer cancel()
	// Thread the request trace through the run: the context carries it to
	// the runner (which derives a traced session for the compute layers),
	// and ttel stamps it into the service-layer spans recorded here.
	ctx = telemetry.ContextWithTrace(ctx, telemetry.TraceContext{TraceID: j.Trace, Tid: worker})
	ttel := s.tel.WithTrace(j.Trace)
	if err := j.MarkRunning(cancel, now); err != nil {
		// Canceled between Remove-miss and Claim: the job is already
		// terminal; nothing to run.
		s.retireHash(j)
		return
	}
	_ = s.wal.AppendState(j.ID, jobs.StateRunning, j.Attempts(), "", nil, now)
	st := j.Snapshot()
	s.tel.Histogram("svc.queue.wait_ns").Observe(int64(st.QueueWaitMS * float64(time.Millisecond)))

	// Last-chance dedup, layer 1: the local cache may have warmed while
	// this job sat queued (peek — the admission path already counted the
	// authoritative hit/miss for this submission).
	endLookup := ttel.SpanArgsAtEnd("svc.lookup", "local-cache", telemetry.DriverPid, worker)
	out, ok := s.cache.Peek(j.Hash)
	endLookup(map[string]any{"job": j.ID, "hit": ok})
	if ok {
		s.recordDone(j, out, false)
		return
	}
	// Layer 2: a fleet peer may hold (or be computing) the result.
	if s.currentFleet() != nil {
		endSweep := ttel.SpanArgsAtEnd("svc.lookup", "peer-sweep", telemetry.DriverPid, worker)
		out, inflight := s.sweepPeerCaches(j.Hash)
		if out == nil && inflight {
			out = s.awaitPeerResult(j.Hash, s.peerWaitBudget(j.Spec))
		}
		endSweep(map[string]any{"job": j.ID, "hit": out != nil})
		if out != nil {
			s.recordDone(j, out, false)
			return
		}
	}

	endSpan := ttel.Span("svc.job", j.ID, telemetry.DriverPid, worker,
		map[string]any{"hash": j.Hash, "attempt": j.Attempts(), "mode": j.Spec.Mode})
	runStart := time.Now()
	out, err := s.runner.RunOnce(ctx, j.Spec)
	runDur := time.Since(runStart)
	endSpan()
	if s.killed.Load() {
		return // SIGKILL'd mid-run: a dead process records nothing
	}
	s.tel.Histogram("svc.job.run_ns").Observe(runDur.Nanoseconds())

	switch {
	case err == nil:
		s.recordDone(j, out, true)
	case jobs.Permanent(err):
		// Cancellation vs deadline: both stop the job, but they read
		// differently in the status record.
		msg := "canceled"
		if errors.Is(err, context.DeadlineExceeded) {
			msg = fmt.Sprintf("deadline exceeded after %v", s.jobTimeout(j.Spec))
		}
		tNow := time.Now()
		_ = s.wal.AppendState(j.ID, jobs.StateCanceled, j.Attempts(), msg, nil, tNow)
		if _, mkErr := j.MarkCanceled(msg, tNow); mkErr == nil {
			s.tel.Counter("svc.jobs.canceled").Add(1)
		}
		s.retireHash(j)
	default:
		// Run failure: bounded retry through the FSM while budget remains
		// and the queue still accepts work.
		if j.Attempts() <= s.jobRetries(j.Spec) && !s.queue.Closed() {
			if rqErr := j.Requeue(); rqErr == nil {
				if subErr := s.queue.Submit(j); subErr == nil {
					_ = s.wal.AppendState(j.ID, jobs.StateQueued, j.Attempts(), err.Error(), nil, time.Now())
					s.tel.Counter("svc.jobs.retried").Add(1)
					s.observeDepth()
					return
				}
				// Queue full/closed: fall through to a terminal failure.
				_ = j.MarkRunning(func() {}, time.Now())
			}
		}
		tNow := time.Now()
		_ = s.wal.AppendState(j.ID, jobs.StateFailed, j.Attempts(), err.Error(), nil, tNow)
		if mkErr := j.MarkFailed(err.Error(), tNow); mkErr == nil {
			s.tel.Counter("svc.jobs.failed").Add(1)
			// Terminal failure: snapshot the flight ring so the postmortem
			// has the job's last spans and log lines even with no live trace.
			ttel.Logf("svc", "job %s failed after %d attempts: %v", j.ID, j.Attempts(), err)
			ttel.DumpFlight("job-failed")
		}
		s.retireHash(j)
	}
}

// peerWaitBudget bounds how long a worker waits for a peer's in-flight
// identical run before computing locally: generous enough to ride out a
// typical small-system SCF, small against the job's own deadline.
func (s *Server) peerWaitBudget(spec jobs.Spec) time.Duration {
	budget := s.jobTimeout(spec) / 4
	if budget > 5*time.Second {
		budget = 5 * time.Second
	}
	if budget < 200*time.Millisecond {
		budget = 200 * time.Millisecond
	}
	return budget
}

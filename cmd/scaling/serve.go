package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/internal/service"
)

// liveServe is the serving load test (EXP-SERVE): a real Server on a
// loopback ephemeral port takes a mixed workload of duplicate and
// distinct jobs over HTTP, is drained, and must show the serving
// contract under pressure:
//
//	≥ 50 jobs driven                     the load ran at the advertised size
//	duplicate-stream hit rate ≥ 40%      byte-different spellings of the same
//	                                     physics collapse onto the result cache
//	≥ 1 backpressure 429                 the bounded queue sheds load, and the
//	                                     shed requests are retried, not lost
//	0 jobs lost or stuck, 0 failed       everything admitted reaches Done
func liveServe(e *env) {
	rep, err := runLoadgen(fullServe)
	check(err)
	fmt.Println()
	e.emit(rep.table())
	rep.gate(e.gates)
}

// serveLoad sizes the load test: total jobs, concurrent submitting
// clients, server worker pool, server queue bound (small, so
// backpressure is observable) and the workload shuffle seed.
type serveLoad struct {
	jobs, clients, workers, queueCap int
	seed                             int64
}

var fullServe = serveLoad{jobs: 60, clients: 8, workers: 2, queueCap: 4, seed: 1}

// serveTimeout is the per-job deadline and the drain bound.
const serveTimeout = 60 * time.Second

// serveReport is the measured result of a load test.
type serveReport struct {
	jobs       int // requests submitted (dup + distinct), excluding 429 retries
	dupStream  int // requests in the duplicate stream
	distinct   int // requests in the distinct stream
	completed  int // jobs that reached Done (including cached/coalesced)
	failed     int
	canceled   int
	lostStuck  int // jobs still queued or running once every client has its answer — must be 0
	rejected   int // 429 responses observed (requests were retried after)
	cacheHits  int // duplicate-stream requests answered from the result cache
	coalesced  int // requests deduped onto an in-flight job
	dupHitRate float64
	wall       time.Duration
	lat        []time.Duration // per-request completion latency, sorted
	depthP50   int64
	depthP95   int64
	depthMax   int64
}

// gate records the EXP-SERVE acceptance criteria on g.
func (r *serveReport) gate(g *gates) {
	g.check("load >= 50 jobs", r.jobs >= 50, fmt.Sprintf("%d jobs driven", r.jobs))
	g.check("duplicate-stream hit rate >= 40%", r.dupHitRate >= 0.40,
		fmt.Sprintf("%.0f%% of %d (%d hits)", 100*r.dupHitRate, r.dupStream, r.cacheHits))
	g.check("backpressure 429 observed", r.rejected >= 1, fmt.Sprintf("%d rejections, all retried", r.rejected))
	g.check("zero lost or stuck jobs", r.lostStuck == 0, fmt.Sprintf("%d pending after the run", r.lostStuck))
	g.check("zero failed jobs", r.failed == 0, fmt.Sprintf("%d failed, %d canceled", r.failed, r.canceled))
}

func (r *serveReport) table() *table {
	t := newTable("metric", "value")
	pct := func(p int) string {
		if len(r.lat) == 0 {
			return ""
		}
		return ms(r.lat[min(len(r.lat)*p/100, len(r.lat)-1)])
	}
	for _, kv := range [][2]any{
		{"jobs_submitted", r.jobs}, {"dup_stream", r.dupStream}, {"distinct", r.distinct},
		{"completed", r.completed}, {"failed", r.failed}, {"canceled", r.canceled},
		{"lost_stuck", r.lostStuck}, {"rejected_429", r.rejected}, {"cache_hits", r.cacheHits},
		{"coalesced", r.coalesced}, {"dup_hit_rate_pct", f2(100 * r.dupHitRate)},
		{"wall_ms", ms(r.wall)}, {"throughput_per_s", f2(float64(r.completed) / r.wall.Seconds())},
		{"latency_p50_ms", pct(50)}, {"latency_p95_ms", pct(95)}, {"latency_p99_ms", pct(99)},
		{"latency_max_ms", pct(100)},
		{"queue_depth_p50", r.depthP50}, {"queue_depth_p95", r.depthP95}, {"queue_depth_max", r.depthMax},
	} {
		t.row(kv[0], kv[1])
	}
	return t
}

// loadgenWorkload builds the request mix: ~40% distinct specs (different
// molecules and convergence targets → unique hashes) and ~60% duplicate
// stream (three byte-level renderings of the same water geometry — atom
// order permuted, whitespace injected — plus repeated named specs, all
// collapsing to two canonical hashes).
func loadgenWorkload(n int, rng *rand.Rand) (distinct, dups []jobs.Spec) {
	distinctMols := []string{"h2", "heh+", "water", "methane", "ammonia"}
	nDistinct := (n * 2) / 5
	for i := 0; i < nDistinct; i++ {
		distinct = append(distinct, jobs.Spec{
			Molecule: distinctMols[i%len(distinctMols)],
			Basis:    "sto-3g",
			Mode:     []string{jobs.ModeSerial, jobs.ModeParallel, jobs.ModeResilient}[i%3],
			// Vary a physical knob so every distinct spec hashes uniquely
			// even when the molecule repeats.
			MaxIter: 90 + i,
		})
	}
	// The duplicate stream: the same physics spelled differently.
	waterVariants := []jobs.Spec{
		{Molecule: "water", Basis: "sto-3g", Mode: jobs.ModeSerial},
		{Molecule: "h2o", Basis: "STO-3G", Mode: jobs.ModeParallel}, // alias + case
		{XYZ: "3\nwater permuted\nH 0.000000  0.757200 -0.469200\nH  0.000000 -0.757200 -0.469200\nO\t0.000000 0.000000  0.117300\n"},
		{XYZ: "3\n  water spaced \nO 0.0 0.0 0.1173\nH 0.0 0.7572 -0.4692\nH 0.0 -0.7572 -0.4692\n"},
	}
	h2Variants := []jobs.Spec{
		{Molecule: "h2", Basis: "sto-3g"},
		{XYZ: "2\nh2 inline\nH 0 0 0\nH 0 0 0.74\n", Basis: "sto-3g", Mode: jobs.ModeSerial},
	}
	for i := 0; nDistinct+len(dups) < n; i++ {
		if i%3 == 0 {
			dups = append(dups, h2Variants[rng.Intn(len(h2Variants))])
		} else {
			dups = append(dups, waterVariants[rng.Intn(len(waterVariants))])
		}
	}
	return distinct, dups
}

// runLoadgen executes the load test. It returns an error only on harness
// failures (bind, HTTP transport, a request that never got an answer);
// the gates belong to the caller.
func runLoadgen(load serveLoad) (*serveReport, error) {
	distinct, dups := loadgenWorkload(load.jobs, rand.New(rand.NewSource(load.seed)))
	// The burst must overflow by construction: every client in flight at
	// once, with no job able to finish, is more than the workers and the
	// queue together can hold.
	if need := load.workers + load.queueCap + 1; load.clients < need || len(distinct)+2 < need {
		return nil, fmt.Errorf("loadgen: %d clients and a %d-job burst cannot overflow %d workers + queue cap %d",
			load.clients, len(distinct)+2, load.workers, load.queueCap)
	}
	srv, err := service.New(service.Config{
		Workers:        load.workers,
		QueueCap:       load.queueCap,
		DefaultTimeout: serveTimeout,
	})
	if err != nil {
		return nil, err
	}
	// HTTP is served here rather than by srv.Start, which would also start
	// the workers: phase 1 starts them only once the burst has overflowed.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	defer hs.Close()
	go hs.Serve(ln) // returns http.ErrServerClosed once the deferred Close runs
	addr := ln.Addr().String()
	fmt.Printf("loadgen: serving on %s (%d workers, queue cap %d)\n", addr, load.workers, load.queueCap)
	api := newAPIClient(addr)

	rep := &serveReport{jobs: len(distinct) + len(dups), distinct: len(distinct), dupStream: len(dups)}
	start := time.Now()

	var mu sync.Mutex
	var firstErr error
	// runStream pushes stream through at most load.clients concurrent
	// clients, each submitting one spec and awaiting its terminal state.
	runStream := func(stream []jobs.Spec, dupStream bool) {
		sem := make(chan struct{}, load.clients)
		var wg sync.WaitGroup
		for _, spec := range stream {
			wg.Add(1)
			sem <- struct{}{}
			go func(spec jobs.Spec) {
				defer wg.Done()
				defer func() { <-sem }()
				t0 := time.Now()
				out, rejected, err := api.submit(spec)
				var st jobs.Status
				if err == nil {
					st, err = api.awaitTerminal(out.ID, time.Now().Add(serveTimeout+30*time.Second))
				}
				mu.Lock()
				defer mu.Unlock()
				rep.rejected += rejected
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				if out.Cached && dupStream {
					rep.cacheHits++
				} else if out.Coalesced {
					rep.coalesced++
				}
				rep.lat = append(rep.lat, time.Since(t0))
				switch st.State {
				case jobs.StateDone:
					rep.completed++
				case jobs.StateFailed:
					rep.failed++
				case jobs.StateCanceled:
					rep.canceled++
				}
			}(spec)
		}
		wg.Wait()
	}

	// Phase 1 — burst: the whole distinct stream plus one instance of each
	// duplicate base, from load.clients concurrent clients against a queue
	// of load.queueCap. The workers start only after the server has
	// bounced a submission, so the burst exceeds capacity by construction:
	// at least one 429, retried to completion — the backpressure gate
	// (which reports the miss if none came within serveTimeout).
	fmt.Printf("loadgen: phase 1 — bursting %d distinct jobs (+2 warmers) to force 429s\n", len(distinct))
	burst := make(chan struct{})
	go func() {
		runStream(append(append([]jobs.Spec{}, distinct...), dups[0], dups[len(dups)-1]), false)
		close(burst)
	}()
	deadline := time.Now().Add(serveTimeout)
	for srv.Telemetry().CounterValue("svc.jobs.rejected") == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	srv.StartWorkers()
	<-burst
	fmt.Printf("loadgen: phase 1 done — %d rejections absorbed so far\n", rep.rejected)

	// Phase 2 — the duplicate stream: byte-different spellings of already
	// warmed content, which should now be served from the canonical-hash
	// cache.
	fmt.Printf("loadgen: phase 2 — duplicate stream of %d jobs\n", len(dups))
	runStream(dups, true)

	// Every client has its terminal answer, so anything the server still
	// holds queued or running was lost track of. Audited over the API,
	// which the drain below shuts down.
	for _, state := range []jobs.State{jobs.StateQueued, jobs.StateRunning} {
		n, err := api.count(state)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		rep.lostStuck += n
	}
	api.hangUp()
	drainCtx, cancel := context.WithTimeout(context.Background(), serveTimeout)
	defer cancel()
	// Every job is already terminal, so a deadline here is only the HTTP
	// listener waiting on a late-dialed connection, not lost work.
	if err := srv.Drain(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return nil, fmt.Errorf("loadgen: drain: %w", err)
	}
	rep.wall = time.Since(start)

	if rep.dupStream > 0 {
		rep.dupHitRate = float64(rep.cacheHits) / float64(rep.dupStream)
	}
	sort.Slice(rep.lat, func(i, j int) bool { return rep.lat[i] < rep.lat[j] })
	depth := srv.Telemetry().Histogram("svc.queue.depth")
	rep.depthP50, rep.depthP95, rep.depthMax = depth.Percentile(0.50), depth.Percentile(0.95), depth.Max()
	return rep, firstErr
}

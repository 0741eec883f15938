// Command hfserve runs the HF-as-a-service layer: an HTTP JSON API in
// front of a bounded priority job queue, a worker pool executing jobs
// through the resilient SCF runner, an LRU result cache keyed by
// canonical content hash, and graceful drain on SIGINT/SIGTERM.
//
// Examples:
//
//	hfserve -addr :8080
//	hfserve -addr 127.0.0.1:0 -portfile /tmp/hfserve.port -workers 2 -queue-cap 4
//
// The flags are the server's whole configuration surface
// (service.Config). The 429 Retry-After clamp (1-60 s), the WAL segment
// size (1 MiB), its compaction retention (512 terminal jobs) and the
// fleet ring's 64 virtual nodes per replica are constants.
//
// The serving load test (EXP-SERVE) is `scaling -exp serve`.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks an ephemeral port)")
		portfile = flag.String("portfile", "", "write the bound host:port to this file once listening")
		workers  = flag.Int("workers", 4, "worker pool size — the simulated-cluster budget")
		queueCap = flag.Int("queue-cap", 64, "queued-job bound before 429 backpressure")
		cacheN   = flag.Int("cache", 256, "LRU result-cache entries")
		timeout  = flag.Duration("timeout", 5*time.Minute, "default per-job deadline (specs may override)")
		retries  = flag.Int("retries", 1, "default retry budget for failed runs (specs may override)")
		drainT   = flag.Duration("drain-timeout", 2*time.Minute, "bound on graceful drain before in-flight jobs are canceled")
		walDir   = flag.String("wal", "", "write-ahead log directory (crash-replay durability); empty disables")
		replica  = flag.String("replica", "", "fleet: this replica's name (requires -peers)")
		peers    = flag.String("peers", "", "fleet: comma-separated name=host:port members, self included")
		quota    = flag.Int("tenant-quota", 0, "max active jobs per tenant (0 = unlimited)")
		ageAfter = flag.Duration("age-after", 0, "priority aging: boost a queued job every this long (0 disables)")
		ageBoost = flag.Int("age-boost", 1, "priority aging: effective-priority boost per interval waited")
	)
	flag.Parse()

	srv, err := service.New(service.Config{
		Workers:        *workers,
		QueueCap:       *queueCap,
		CacheSize:      *cacheN,
		DefaultTimeout: *timeout,
		MaxRetries:     *retries,
		WALDir:         *walDir,
		TenantQuota:    *quota,
		AgeAfter:       *ageAfter,
		AgeBoost:       *ageBoost,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hfserve:", err)
		os.Exit(1)
	}
	if *peers != "" {
		members, perr := parsePeers(*peers)
		if perr != nil {
			fmt.Fprintln(os.Stderr, "hfserve:", perr)
			os.Exit(1)
		}
		if _, ok := members[*replica]; !ok {
			fmt.Fprintf(os.Stderr, "hfserve: -replica %q is not among -peers members\n", *replica)
			os.Exit(1)
		}
		srv.ConfigureFleet(*replica, members)
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hfserve:", err)
		os.Exit(1)
	}
	if srv.RecoveredBacklog() > 0 || srv.RecoveredDone() > 0 {
		fmt.Printf("hfserve: wal replay: %d jobs re-enqueued, %d terminal jobs restored\n",
			srv.RecoveredBacklog(), srv.RecoveredDone())
	}
	if *portfile != "" {
		if err := os.WriteFile(*portfile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "hfserve: portfile:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("hfserve: listening on %s (%d workers, queue cap %d, cache %d)\n",
		bound, *workers, *queueCap, *cacheN)
	fmt.Printf("hfserve: POST http://%s/v1/jobs to submit; SIGINT/SIGTERM drains\n", bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("hfserve: %s — draining (finishing backlog, %v bound)\n", got, *drainT)
	ctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "hfserve: drain:", err)
		os.Exit(1)
	}
	fmt.Println("hfserve: drained cleanly, no jobs lost")
}

// parsePeers decodes a "name=host:port,name=host:port" fleet roster.
func parsePeers(s string) (map[string]string, error) {
	members := map[string]string{}
	for _, part := range strings.Split(s, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want name=host:port)", part)
		}
		members[name] = addr
	}
	return members, nil
}

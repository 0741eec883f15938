package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/internal/telemetry"
)

// Fleet support: N hfserve replicas form a fleet with consistent-hash
// ownership of job content hashes. A replica receiving a submit it does
// not own forwards the POST to the owner (one hop, guarded by the
// X-HF-Forwarded header); if the owner is unreachable the receiving
// replica hands the job off to itself so availability survives a dead
// peer. Result caches are sharded the same way, with a peer-fetch path
// (GET /v1/cache/{hash}) so any replica can serve any cached result at
// the cost of one intra-fleet hop.

// forwardedHeader marks an intra-fleet forwarded submit. A forwarded
// request is always handled locally — one hop maximum, so a stale or
// disagreeing ring can never produce a routing loop.
const forwardedHeader = "X-HF-Forwarded"

// fleet is a Server's view of its replica group.
type fleet struct {
	self  string            // this replica's name
	addrs map[string]string // replica name → host:port (includes self)
	ring  *Ring
	hc    *http.Client
	tel   *telemetry.Session // retry accounting (svc.fleet.fetch_retries)
}

// ConfigureFleet joins the server to a replica group. self names this
// replica; addrs maps every member name (including self) to its
// host:port. Call before Start.
func (s *Server) ConfigureFleet(self string, addrs map[string]string) {
	names := make([]string, 0, len(addrs))
	for n := range addrs {
		names = append(names, n)
	}
	cp := make(map[string]string, len(addrs))
	for n, a := range addrs {
		cp[n] = a
	}
	s.fleetMu.Lock()
	s.fleet = &fleet{
		self:  self,
		addrs: cp,
		ring:  NewRing(names),
		hc:    &http.Client{Timeout: 5 * time.Second},
		tel:   s.tel,
	}
	s.fleetMu.Unlock()
}

// Fleet returns the current ring ("" members when not configured) and
// this replica's name.
func (s *Server) Fleet() (*Ring, string) {
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	if s.fleet == nil {
		return nil, ""
	}
	return s.fleet.ring, s.fleet.self
}

// currentFleet snapshots the fleet pointer.
func (s *Server) currentFleet() *fleet {
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	return s.fleet
}

// peerList returns the fleet members other than self.
func (f *fleet) peerList() []string {
	var out []string
	for n := range f.addrs {
		if n != f.self {
			out = append(out, n)
		}
	}
	return out
}

// peerCacheResult is one peer's answer to a cache probe.
type peerCacheResult struct {
	status  int // 200 cached, 202 in flight, 404 miss, 0 unreachable
	outcome *jobs.Outcome
}

// fetchRetries bounds the re-probes of an unreachable peer: one probe
// plus up to two retries. A transient connection refusal (peer
// restarting, listener backlog full) is worth a short wait; a peer that
// stays dark through three probes is treated as down and the sweep moves
// on — availability over completeness, exactly like the forward path.
const fetchRetries = 2

// fetchPeerCache probes one peer's result cache for hash, retrying
// transport-level failures (status 0) with full-jitter backoff. HTTP
// responses — including 404 and 202 — are answers, not failures, and
// never retried.
func (f *fleet) fetchPeerCache(peer, hash string) peerCacheResult {
	if _, ok := f.addrs[peer]; !ok {
		return peerCacheResult{} // unknown member: nothing to retry against
	}
	res := f.fetchPeerCacheOnce(peer, hash)
	for attempt := 0; res.status == 0 && attempt < fetchRetries; attempt++ {
		f.tel.Counter("svc.fleet.fetch_retries").Add(1)
		time.Sleep(fetchBackoff(peer, hash, attempt))
		res = f.fetchPeerCacheOnce(peer, hash)
	}
	return res
}

// fetchBackoff is the full-jitter retry delay for attempt (0-based):
// uniform in [0, 5ms·2^attempt). Deterministic per (peer, hash, attempt)
// so runs reproduce; jittered across keys so a fleet-wide sweep against
// a restarting peer does not re-probe in a synchronized wave.
func fetchBackoff(peer, hash string, attempt int) time.Duration {
	window := uint64(5 * time.Millisecond << uint(attempt))
	seed := uint64(attempt) << 48
	for _, c := range []byte(peer + "/" + hash) {
		seed = seed<<7 ^ seed>>57 ^ uint64(c)
	}
	// splitmix64 finalizer over the folded seed.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return time.Duration(z % window)
}

// fetchPeerCacheOnce is one unretried cache probe.
func (f *fleet) fetchPeerCacheOnce(peer, hash string) peerCacheResult {
	addr, ok := f.addrs[peer]
	if !ok {
		return peerCacheResult{}
	}
	resp, err := f.hc.Get(fmt.Sprintf("http://%s/v1/cache/%s", addr, hash))
	if err != nil {
		return peerCacheResult{}
	}
	defer resp.Body.Close()
	res := peerCacheResult{status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		var out jobs.Outcome
		if json.NewDecoder(io.LimitReader(resp.Body, maxSpecBytes)).Decode(&out) == nil {
			res.outcome = &out
		} else {
			res.status = 0 // unreadable body: treat as unreachable
		}
	}
	return res
}

// sweepPeerCaches probes every other replica for hash and returns the
// first cached outcome found, plus whether any peer reported the hash in
// flight (202). The sweep is the last-chance dedup barrier before a
// worker pays for an SCF run: with consistent hashing the owner is the
// likely holder, so it is probed first, but after a hand-off or a ring
// change the result can legitimately live anywhere.
func (s *Server) sweepPeerCaches(hash string) (*jobs.Outcome, bool) {
	f := s.currentFleet()
	if f == nil {
		return nil, false
	}
	peers := f.peerList()
	if owner := f.ring.Owner(hash); owner != f.self {
		// Probe the owner first.
		for i, p := range peers {
			if p == owner && i != 0 {
				peers[0], peers[i] = peers[i], peers[0]
			}
		}
	}
	inflight := false
	for _, p := range peers {
		switch res := f.fetchPeerCache(p, hash); res.status {
		case http.StatusOK:
			if res.outcome != nil {
				s.tel.Counter("svc.fleet.peer_hit").Add(1)
				return res.outcome, inflight
			}
		case http.StatusAccepted:
			inflight = true
		}
	}
	return nil, inflight
}

// awaitPeerResult polls the fleet for a result another replica reported
// in flight, giving the remote run a bounded window to finish before
// this replica falls back to computing locally. Bounded because the
// remote replica may die mid-run — waiting forever would convert a peer
// crash into a local hang.
func (s *Server) awaitPeerResult(hash string, budget time.Duration) *jobs.Outcome {
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		out, inflight := s.sweepPeerCaches(hash)
		if out != nil {
			return out
		}
		if !inflight {
			return nil // remote attempt vanished (crash or eviction): run locally
		}
	}
	return nil
}

// forwardSubmit proxies a validated submit to the owning replica,
// writing the owner's response through to the client. The request trace
// ID rides along in the X-HF-Trace header, so the owner's spans land
// under the same trace the ingress replica minted. It returns false
// if the owner is unreachable — the caller then hands the job off to the
// local queue instead (availability over placement).
func (s *Server) forwardSubmit(w http.ResponseWriter, owner string, spec jobs.Spec, trace string) bool {
	f := s.currentFleet()
	if f == nil {
		return false
	}
	addr, ok := f.addrs[owner]
	if !ok {
		return false
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return false
	}
	req, err := http.NewRequest(http.MethodPost, fmt.Sprintf("http://%s/v1/jobs", addr), bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, f.self)
	if trace != "" {
		req.Header.Set(telemetry.TraceHeader, trace)
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	s.tel.Counter("svc.fleet.forwarded").Add(1)
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, io.LimitReader(resp.Body, maxSpecBytes))
	return true
}

// execTracker counts completed local SCF executions per content hash —
// the ground truth the fleet chaos gate audits for exactly-once
// execution. Replayed done records count: the execution happened on this
// replica before the crash and its result survived in the WAL.
type execTracker struct {
	mu sync.Mutex
	m  map[string]int
}

func (e *execTracker) add(hash string) {
	e.mu.Lock()
	if e.m == nil {
		e.m = make(map[string]int)
	}
	e.m[hash]++
	e.mu.Unlock()
}

// snapshot returns a copy of the per-hash execution counts.
func (e *execTracker) snapshot() map[string]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]int, len(e.m))
	for h, n := range e.m {
		out[h] = n
	}
	return out
}

// Executions returns a copy of this replica's per-content-hash count of
// completed SCF executions (replayed pre-crash completions included).
func (s *Server) Executions() map[string]int { return s.execs.snapshot() }

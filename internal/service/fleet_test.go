package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/jobs"
)

func TestRingDeterministicAndBalanced(t *testing.T) {
	members := []string{"r0", "r1", "r2"}
	a := NewRing(members)
	b := NewRing([]string{"r2", "r0", "r1"}) // order must not matter

	counts := map[string]int{}
	moved := 0
	small := NewRing([]string{"r0", "r1"})
	for i := 0; i < 1000; i++ {
		h := fmt.Sprintf("hash-%04d", i)
		own := a.Owner(h)
		if got := b.Owner(h); got != own {
			t.Fatalf("rings disagree on %s: %s vs %s", h, own, got)
		}
		counts[own]++
		// Consistency: dropping r2 must only remap r2's share.
		if own != "r2" && small.Owner(h) != own {
			moved++
		}
	}
	for _, m := range members {
		if counts[m] < 100 {
			t.Fatalf("ownership badly skewed: %v", counts)
		}
	}
	if moved > 0 {
		t.Fatalf("%d hashes not owned by the removed replica changed owner", moved)
	}
	if own := (*Ring)(nil).Owner("x"); own != "" {
		t.Fatalf("nil ring owner = %q, want empty", own)
	}
}

// startTestFleet boots n replicas on ephemeral ports and joins them into
// one consistent-hash group.
func startTestFleet(t *testing.T, n int, cfg Config) ([]*Server, map[string]string) {
	t.Helper()
	servers := make([]*Server, n)
	members := map[string]string{}
	for i := 0; i < n; i++ {
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("New replica %d: %v", i, err)
		}
		addr, err := s.Start("127.0.0.1:0")
		if err != nil {
			t.Fatalf("Start replica %d: %v", i, err)
		}
		servers[i] = s
		members[fmt.Sprintf("r%d", i)] = addr
	}
	for i, s := range servers {
		s.ConfigureFleet(fmt.Sprintf("r%d", i), members)
	}
	t.Cleanup(func() {
		for _, s := range servers {
			if !s.Killed() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				_ = s.Drain(ctx)
				cancel()
			}
		}
	})
	return servers, members
}

// fleetPost submits spec to the replica at addr and decodes the response.
func fleetPost(t *testing.T, addr string, spec jobs.Spec) (SubmitResponse, int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post("http://"+addr+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST to %s: %v", addr, err)
	}
	defer resp.Body.Close()
	var out SubmitResponse
	if resp.StatusCode < 400 {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return out, resp.StatusCode
}

// waitFleetDone polls every replica until the hash is cached somewhere.
func waitFleetDone(t *testing.T, members map[string]string, hash string, within time.Duration) *jobs.Outcome {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		for _, addr := range members {
			resp, err := http.Get(fmt.Sprintf("http://%s/v1/cache/%s", addr, hash))
			if err != nil {
				continue
			}
			if resp.StatusCode == http.StatusOK {
				var out jobs.Outcome
				err := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					t.Fatalf("decode cache probe: %v", err)
				}
				return &out
			}
			resp.Body.Close()
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("hash %s never became cached fleet-wide", hash)
	return nil
}

func TestFleetForwardAndPeerFetch(t *testing.T) {
	servers, members := startTestFleet(t, 2, Config{Workers: 1, QueueCap: 16,
		DefaultTimeout: time.Minute})

	spec := jobs.Spec{Molecule: "h2", Basis: "sto-3g", Mode: jobs.ModeSerial}
	hash, err := spec.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	ring, _ := servers[0].Fleet()
	owner := ring.Owner(hash)
	// Submit to the NON-owner: the request must route to the owner.
	nonOwner := "r0"
	if owner == "r0" {
		nonOwner = "r1"
	}
	out, status := fleetPost(t, members[nonOwner], spec)
	if status != http.StatusAccepted {
		t.Fatalf("forwarded submit status %d, want 202", status)
	}
	if out.Replica != owner {
		t.Fatalf("job accepted by %q, want owner %q", out.Replica, owner)
	}
	waitFleetDone(t, members, hash, 30*time.Second)

	// Resubmit to the non-owner: served via peer cache fetch, one hop, no
	// second execution.
	out2, status2 := fleetPost(t, members[nonOwner], spec)
	if status2 != http.StatusOK || !out2.Cached {
		t.Fatalf("resubmit status %d cached=%v, want 200 cached", status2, out2.Cached)
	}
	var ownerIdx, nonIdx int
	if owner == "r0" {
		ownerIdx, nonIdx = 0, 1
	} else {
		ownerIdx, nonIdx = 1, 0
	}
	if n := servers[ownerIdx].Executions()[hash]; n != 1 {
		t.Fatalf("owner executed %d times, want 1", n)
	}
	if n := servers[nonIdx].Executions()[hash]; n != 0 {
		t.Fatalf("non-owner executed %d times, want 0", n)
	}
	if got := servers[nonIdx].Telemetry().Counter("svc.fleet.peer_hit").Value(); got < 1 {
		t.Fatalf("svc.fleet.peer_hit = %d, want >= 1", got)
	}
	if got := servers[nonIdx].Telemetry().Counter("svc.fleet.forwarded").Value(); got < 1 {
		t.Fatalf("svc.fleet.forwarded = %d, want >= 1", got)
	}
}

func TestFleetHandoffWhenOwnerDown(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueCap: 16, DefaultTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	// A guaranteed-dead peer address: bind a port, then free it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()
	s.ConfigureFleet("live", map[string]string{"live": addr, "dead": deadAddr})

	// Find a spec the dead replica owns (vary the hash via MaxIter).
	ring, _ := s.Fleet()
	var spec jobs.Spec
	var hash string
	for iter := 30; ; iter++ {
		spec = jobs.Spec{Molecule: "h2", Basis: "sto-3g", Mode: jobs.ModeSerial, MaxIter: iter}
		h, err := spec.CanonicalHash()
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(h) == "dead" {
			hash = h
			break
		}
	}
	out, status := fleetPost(t, addr, spec)
	if status != http.StatusAccepted {
		t.Fatalf("handoff submit status %d, want 202", status)
	}
	if out.Replica != "live" {
		t.Fatalf("accepted by %q, want local hand-off to live", out.Replica)
	}
	if got := s.Telemetry().Counter("svc.fleet.handoff").Value(); got < 1 {
		t.Fatalf("svc.fleet.handoff = %d, want >= 1", got)
	}
	waitFleetDone(t, map[string]string{"live": addr}, hash, 30*time.Second)
	if n := s.Executions()[hash]; n != 1 {
		t.Fatalf("live replica executed %d times, want 1", n)
	}
}

func TestCrashReplayRecoversBacklogExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Server {
		s, err := New(Config{Workers: 2, QueueCap: 4, DefaultTimeout: time.Minute,
			WALDir: dir, WALNoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Boot 1: accept three jobs with the worker pool never started (so
	// they deterministically sit queued), then crash. The accepts are on
	// disk; nothing ever ran.
	s1 := mk()
	hashes := map[string]bool{}
	for i, iter := range []int{41, 42, 43} {
		spec := jobs.Spec{Molecule: "h2", Basis: "sto-3g", Mode: jobs.ModeSerial, MaxIter: iter}
		resp := postToHandler(t, s1, spec)
		if resp.State != jobs.StateQueued {
			t.Fatalf("submit %d state %q, want queued", i, resp.State)
		}
		hashes[resp.Hash] = true
	}
	s1.Kill() // SIGKILL: no drain, no compaction, queue contents abandoned

	// Boot 2: replay must re-enqueue all three and run each exactly once.
	s2 := mk()
	if got := s2.RecoveredBacklog(); got != 3 {
		t.Fatalf("recovered backlog %d, want 3", got)
	}
	s2.StartWorkers()
	deadline := time.Now().Add(60 * time.Second)
	for done := 0; done < 3 && time.Now().Before(deadline); {
		done = 0
		for h := range hashes {
			if _, ok := s2.Cache().Peek(h); ok {
				done++
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	execs := s2.Executions()
	for h := range hashes {
		if execs[h] != 1 {
			t.Fatalf("hash %s executed %d times after replay, want 1 (execs: %v)", h, execs[h], execs)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s2.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Boot 3: the drained server compacted; replay sees terminal jobs
	// only, nothing re-enqueues, and the cache re-warms from the log.
	s3 := mk()
	if got := s3.RecoveredBacklog(); got != 0 {
		t.Fatalf("post-compaction backlog %d, want 0", got)
	}
	if got := s3.RecoveredDone(); got != 3 {
		t.Fatalf("post-compaction recovered done %d, want 3", got)
	}
	for h := range hashes {
		if _, ok := s3.Cache().Peek(h); !ok {
			t.Fatalf("hash %s not re-warmed into the cache from the compacted log", h)
		}
	}
	s3.Kill()
}

// postToHandler drives a submit through the handler without a listener.
func postToHandler(t *testing.T, s *Server, spec jobs.Spec) SubmitResponse {
	t.Helper()
	body, _ := json.Marshal(spec)
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code >= 400 {
		t.Fatalf("submit status %d: %s", rec.Code, rec.Body.String())
	}
	var out SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

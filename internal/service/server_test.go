package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
)

// testServer wires a Server to an httptest listener. Workers start only
// when start is true, so backpressure tests can fill the queue
// deterministically.
func testServer(t *testing.T, cfg Config, start bool) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if start {
		s.StartWorkers()
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Drain(ctx); err != nil {
				t.Errorf("drain: %v", err)
			}
		})
	}
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, spec jobs.Spec) (SubmitResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var out SubmitResponse
	if resp.StatusCode < 400 {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return out, resp
}

func getStatus(t *testing.T, ts *httptest.Server, id string) jobs.Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: HTTP %d", id, resp.StatusCode)
	}
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

func awaitTerminal(t *testing.T, ts *httptest.Server, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getStatus(t, ts, id)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServeSubmitPollDone(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, QueueCap: 8}, true)

	out, resp := postJob(t, ts, jobs.Spec{Molecule: "h2", Mode: jobs.ModeSerial})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", resp.StatusCode)
	}
	if out.ID == "" || out.Hash == "" {
		t.Fatalf("submit response missing id/hash: %+v", out)
	}
	st := awaitTerminal(t, ts, out.ID)
	if st.State != jobs.StateDone {
		t.Fatalf("job ended %s (%s), want done", st.State, st.Error)
	}
	if st.Result == nil || !st.Result.Converged {
		t.Fatalf("job done but result not converged: %+v", st.Result)
	}
	// RHF/STO-3G H2 at 0.74 Å: E ≈ -1.117 hartree.
	if e := st.Result.Energy; e > -1.0 || e < -1.2 {
		t.Errorf("H2 energy %v outside [-1.2, -1.0]", e)
	}
}

func TestServeCachedResubmit(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueCap: 8}, true)

	first, resp := postJob(t, ts, jobs.Spec{Molecule: "water", Mode: jobs.ModeSerial})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", resp.StatusCode)
	}
	done := awaitTerminal(t, ts, first.ID)
	if done.State != jobs.StateDone {
		t.Fatalf("first job ended %s (%s)", done.State, done.Error)
	}

	// Resubmit the same physics under a different spelling: alias name,
	// different basis case, different execution mode. Must be a cache hit.
	start := time.Now()
	second, resp2 := postJob(t, ts, jobs.Spec{Molecule: "h2o", Basis: "STO-3G", Mode: jobs.ModeParallel})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached resubmit: HTTP %d, want 200", resp2.StatusCode)
	}
	if !second.Cached || second.Result == nil {
		t.Fatalf("resubmit not served from cache: %+v", second)
	}
	if second.Hash != first.Hash {
		t.Fatalf("hash mismatch across spellings: %s vs %s", first.Hash, second.Hash)
	}
	if second.Result.Energy != done.Result.Energy {
		t.Fatalf("cached energy %v != original %v", second.Result.Energy, done.Result.Energy)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cached resubmit took %v, expected near-instant", d)
	}
	// The cached job still has a GET-able record of its own.
	if st := getStatus(t, ts, second.ID); st.State != jobs.StateDone || !st.Cached {
		t.Errorf("cached job record: %+v", st)
	}
}

func TestServeBackpressure429(t *testing.T) {
	// No workers: the queue fills deterministically.
	s, ts := testServer(t, Config{Workers: 1, QueueCap: 1}, false)

	if _, resp := postJob(t, ts, jobs.Spec{Molecule: "h2", Mode: jobs.ModeSerial}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", resp.StatusCode)
	}
	_, resp := postJob(t, ts, jobs.Spec{Molecule: "water", Mode: jobs.ModeSerial})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: HTTP %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want the floor \"1\"", ra)
	}
	if got := s.tel.Counter("svc.jobs.rejected").Value(); got != 1 {
		t.Errorf("svc.jobs.rejected = %d, want 1", got)
	}

	// A duplicate of the queued job coalesces instead of bouncing: dedup
	// beats backpressure.
	out, resp2 := postJob(t, ts, jobs.Spec{Molecule: "h2", Mode: jobs.ModeSerial})
	if resp2.StatusCode != http.StatusAccepted || !out.Coalesced {
		t.Fatalf("duplicate of queued job: HTTP %d coalesced=%v, want 202 coalesced", resp2.StatusCode, out.Coalesced)
	}

	// Start the pool; the backlog must drain to completion.
	s.StartWorkers()
	st := awaitTerminal(t, ts, out.ID)
	if st.State != jobs.StateDone {
		t.Fatalf("backlogged job ended %s (%s)", st.State, st.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestServeCancelQueued(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueCap: 4}, false)

	out, resp := postJob(t, ts, jobs.Spec{Molecule: "water", Mode: jobs.ModeSerial})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+out.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	var st jobs.Status
	if err := json.NewDecoder(dresp.Body).Decode(&st); err != nil {
		t.Fatalf("decode cancel response: %v", err)
	}
	dresp.Body.Close()
	if st.State != jobs.StateCanceled {
		t.Fatalf("canceled queued job in state %s", st.State)
	}
	if s.queue.Len() != 0 {
		t.Errorf("queue depth %d after cancel, want 0", s.queue.Len())
	}
	// Canceling a terminal job is a no-op that still returns the record.
	dresp2, err := http.DefaultClient.Do(req.Clone(context.Background()))
	if err != nil {
		t.Fatalf("second DELETE: %v", err)
	}
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusOK {
		t.Errorf("second DELETE: HTTP %d", dresp2.StatusCode)
	}
}

func TestServeDeadline(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueCap: 4}, true)

	// A 1 ms deadline expires before the first SCF iteration completes
	// (benzene: its set-up alone is several ms; water/STO-3G now finishes
	// whole inside 1 ms half the time); the cancellation gate must stop
	// the run and record it as canceled, not failed (no retry burn).
	out, resp := postJob(t, ts, jobs.Spec{Molecule: "benzene", Mode: jobs.ModeSerial, TimeoutMS: 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	st := awaitTerminal(t, ts, out.ID)
	if st.State != jobs.StateCanceled {
		t.Fatalf("deadline job ended %s (%s), want canceled", st.State, st.Error)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Errorf("cancel reason %q does not mention the deadline", st.Error)
	}
	if st.Attempts != 1 {
		t.Errorf("deadline job burned %d attempts, want 1", st.Attempts)
	}
}

func TestServeBadRequests(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueCap: 4}, false)

	cases := []struct {
		name string
		body string
	}{
		{"malformed json", `{`},
		{"unknown field", `{"molecule":"h2","flavor":"strange"}`},
		{"unknown molecule", `{"molecule":"kryptonite"}`},
		{"unknown basis", `{"molecule":"h2","basis":"cc-pVQZ"}`},
		{"bad mode", `{"molecule":"h2","mode":"quantum"}`},
		{"negative maxiter", `{"molecule":"h2","maxiter":-3}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400 (error %q)", tc.name, resp.StatusCode, e.Error)
		}
	}

	// Unknown-molecule errors list what IS available.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"molecule":"kryptonite"}`))
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	for _, want := range []string{"water", "benzene", "kryptonite"} {
		if !strings.Contains(e.Error, want) {
			t.Errorf("unknown-molecule error %q missing %q", e.Error, want)
		}
	}

	if resp, err := http.Get(ts.URL + "/v1/jobs/job-999999"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET unknown id: HTTP %d, want 404", resp.StatusCode)
		}
	}
}

func TestServeQueueHealthMetrics(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 3, QueueCap: 5}, false)

	for i := 0; i < 2; i++ {
		spec := jobs.Spec{Molecule: "h2", Mode: jobs.ModeSerial, MaxIter: 50 + i}
		if _, resp := postJob(t, ts, spec); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/queue")
	if err != nil {
		t.Fatal(err)
	}
	var q queueResponse
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		t.Fatalf("decode queue: %v", err)
	}
	resp.Body.Close()
	if q.Depth != 2 || q.Capacity != 5 || q.Workers != 3 || q.Draining {
		t.Errorf("queue view %+v, want depth 2 cap 5 workers 3 not draining", q)
	}
	if q.States["queued"] != 2 {
		t.Errorf("states %v, want 2 queued", q.States)
	}

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("healthz: HTTP %d", resp.StatusCode)
		}
	}

	resp, err = http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	resp.Body.Close()
	if metrics.Counters["svc.jobs.accepted"] != 2 {
		t.Errorf("metrics counters %v, want svc.jobs.accepted=2", metrics.Counters)
	}
	// The chaos/mitigation taxonomy is pre-registered, so scrapers see it
	// (as zeros) even before any fault fires.
	for _, name := range []string{"chaos.dups_dropped", "dlb.hedged", "dlb.reissued", "ddi.lease.expired"} {
		if _, present := metrics.Counters[name]; !present {
			t.Errorf("metrics missing pre-registered counter %q", name)
		}
	}

	// The default exposition is Prometheus text: counters end in _total
	// and the hf_ prefix namespaces every family.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	promBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prometheus content type %q", ct)
	}
	if !strings.Contains(string(promBody), "hf_svc_jobs_accepted_total 2") {
		t.Errorf("prometheus exposition missing hf_svc_jobs_accepted_total 2:\n%s", promBody)
	}

	// Drain flips readiness and POST to 503 while the backlog finishes;
	// liveness (/healthz) stays 200 so the supervisor does not kill a
	// replica that is deliberately draining.
	s.StartWorkers()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !s.Draining() {
		t.Fatal("server not draining after Drain")
	}
	if _, resp := postJob(t, ts, jobs.Spec{Molecule: "h2"}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST while drained: HTTP %d, want 503", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("healthz while drained: HTTP %d, want 200 (liveness only)", resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("readyz while drained: HTTP %d, want 503", resp.StatusCode)
		}
	}
	// Zero lost jobs: everything submitted before the drain is terminal.
	s.mu.Lock()
	for id, j := range s.byID {
		if !j.State().Terminal() {
			t.Errorf("job %s non-terminal after drain: %s", id, j.State())
		}
	}
	s.mu.Unlock()
}

func TestServeRetryOnFailure(t *testing.T) {
	// An unconverged run is a retryable failure: MaxIter 1 with a tight
	// threshold cannot converge, so the job should burn 1 + MaxRetries
	// attempts and land Failed.
	_, ts := testServer(t, Config{Workers: 1, QueueCap: 4, MaxRetries: 2}, true)

	out, resp := postJob(t, ts, jobs.Spec{Molecule: "h2", Mode: jobs.ModeSerial, MaxIter: 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	st := awaitTerminal(t, ts, out.ID)
	if st.State != jobs.StateFailed {
		t.Fatalf("job ended %s, want failed (error %q)", st.State, st.Error)
	}
	if st.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (1 + 2 retries)", st.Attempts)
	}
}

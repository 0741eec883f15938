package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/service"
)

func testClient(t *testing.T, h http.HandlerFunc) *apiClient {
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return newAPIClient(strings.TrimPrefix(ts.URL, "http://"))
}

// TestClientRetries429: a 429 carrying Retry-After is absorbed and
// retried until the server admits the job, and the bounces are reported.
func TestClientRetries429(t *testing.T) {
	var posts atomic.Int64
	c := testClient(t, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" {
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
		if posts.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(service.ErrorResponse{Error: "queue full"})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(service.SubmitResponse{ID: "job-000007", State: jobs.StateQueued})
	})
	out, rejected, err := c.submit(jobs.Spec{Molecule: "h2"})
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != "job-000007" || rejected != 2 || posts.Load() != 3 {
		t.Errorf("id %q after %d bounces in %d posts, want job-000007/2/3", out.ID, rejected, posts.Load())
	}
}

// TestClientSurfaces4xxBody: a 4xx is not retried and its error body
// reaches the caller.
func TestClientSurfaces4xxBody(t *testing.T) {
	var posts atomic.Int64
	c := testClient(t, func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(service.ErrorResponse{Error: "unknown molecule \"xenon\""})
	})
	_, _, err := c.submit(jobs.Spec{Molecule: "xenon"})
	if err == nil || !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "unknown molecule") {
		t.Fatalf("err = %v, want the status and the server's message", err)
	}
	if posts.Load() != 1 {
		t.Errorf("a 400 was posted %d times, want 1", posts.Load())
	}
	if _, err := c.status("job-1"); err == nil || !strings.Contains(err.Error(), "unknown molecule") {
		t.Errorf("GET error = %v, want the server's message", err)
	}
}

// TestClientAwaitTerminalDeadline: a job that never leaves running is
// reported stuck once the deadline passes; one that finishes is
// returned with its final status.
func TestClientAwaitTerminalDeadline(t *testing.T) {
	var polls atomic.Int64
	c := testClient(t, func(w http.ResponseWriter, r *http.Request) {
		st := jobs.Status{ID: "job-1", State: jobs.StateRunning}
		if strings.HasSuffix(r.URL.Path, "/job-2") && polls.Add(1) >= 2 {
			st = jobs.Status{ID: "job-2", State: jobs.StateDone}
		}
		json.NewEncoder(w).Encode(st)
	})
	st, err := c.awaitTerminal("job-1", time.Now().Add(50*time.Millisecond))
	if err == nil || !strings.Contains(err.Error(), "stuck in state running") || st.State != jobs.StateRunning {
		t.Fatalf("stuck job: status %+v err %v", st, err)
	}
	st, err = c.awaitTerminal("job-2", time.Now().Add(5*time.Second))
	if err != nil || st.State != jobs.StateDone {
		t.Fatalf("finishing job: status %+v err %v", st, err)
	}
}

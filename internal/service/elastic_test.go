package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/mpi"
)

// TestResizeZeroJobsLost: shrinking and regrowing the worker pool while
// a burst is in flight must not lose a single accepted job — retirees
// exit at claim boundaries, never mid-job.
func TestResizeZeroJobsLost(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 3, QueueCap: 64, DefaultTimeout: time.Minute}, true)

	ids := make([]string, 0, 10)
	for i := 0; i < 10; i++ {
		out, resp := postJob(t, ts, jobs.Spec{
			Molecule: "water", Basis: "sto-3g", Mode: jobs.ModeSerial, MaxIter: 30 + i,
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		ids = append(ids, out.ID)
	}

	if from, to := s.Resize(1); from != 3 || to != 1 {
		t.Fatalf("shrink: %d -> %d, want 3 -> 1", from, to)
	}
	if w := s.WorkerCount(); w != 1 {
		t.Fatalf("after shrink: %d workers", w)
	}
	if from, to := s.Resize(4); from != 1 || to != 4 {
		t.Fatalf("grow: %d -> %d, want 1 -> 4", from, to)
	}
	if s.PoolEpoch() != 2 {
		t.Fatalf("pool epoch = %d after two resizes", s.PoolEpoch())
	}

	for _, id := range ids {
		if st := awaitTerminal(t, ts, id); st.State != jobs.StateDone {
			t.Fatalf("job %s ended %s after resizes, want done", id, st.State)
		}
	}
}

// TestResizeRidesJoinProtocol: with a membership attached, a pool grow
// must go announce -> handshake -> commit, and a shrink must be recorded
// as a membership shrink.
func TestResizeRidesJoinProtocol(t *testing.T) {
	s, _ := testServer(t, Config{Workers: 2, QueueCap: 8}, true)
	m := mpi.NewMembership(2, s.Telemetry())
	s.AttachMembership(m)

	s.Resize(4)
	if m.Size() != 4 || m.Epoch() != 1 {
		t.Fatalf("after grow: membership size=%d epoch=%d, want 4/1", m.Size(), m.Epoch())
	}
	if n := s.Telemetry().Counter("elastic.joins.committed").Value(); n != 1 {
		t.Fatalf("joins.committed = %d, want 1 (grow must ride the protocol)", n)
	}
	s.Resize(1)
	if m.Size() != 1 || m.Epoch() != 2 {
		t.Fatalf("after shrink: membership size=%d epoch=%d, want 1/2", m.Size(), m.Epoch())
	}
	if w := s.WorkerCount(); w != 1 {
		t.Fatalf("worker count = %d, want 1", w)
	}
}

// TestAutoscalerGrowAndShrink: a queued burst must scale the pool up,
// and the idle hysteresis must return it to the floor — with every job
// finishing.
func TestAutoscalerGrowAndShrink(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueCap: 64, DefaultTimeout: time.Minute}, true)
	s.AttachMembership(mpi.NewMembership(1, s.Telemetry()))
	s.StartAutoscaler(AutoscalerConfig{
		Min: 1, Max: 4, Interval: 5 * time.Millisecond, DownAfterTicks: 3,
	})

	// Submit the burst concurrently: a serial submit loop drains as fast
	// as one worker runs, so the queue would never back up enough to
	// trip the scale-up threshold.
	const burst = 12
	idCh := make(chan string, burst)
	for i := 0; i < 12; i++ {
		go func(i int) {
			out, resp := postJob(t, ts, jobs.Spec{
				Molecule: "water", Basis: "sto-3g", Mode: jobs.ModeSerial, MaxIter: 40 + i,
			})
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit %d: HTTP %d", i, resp.StatusCode)
				idCh <- ""
				return
			}
			idCh <- out.ID
		}(i)
	}
	ids := make([]string, 0, burst)
	for i := 0; i < burst; i++ {
		if id := <-idCh; id != "" {
			ids = append(ids, id)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	for _, id := range ids {
		if st := awaitTerminal(t, ts, id); st.State != jobs.StateDone {
			t.Fatalf("job %s ended %s, want done", id, st.State)
		}
	}
	if n := s.Telemetry().Counter("elastic.scale_up").Value(); n < 1 {
		t.Fatalf("scale_up = %d, want >= 1", n)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && s.WorkerCount() > 1 {
		time.Sleep(5 * time.Millisecond)
	}
	if w := s.WorkerCount(); w != 1 {
		t.Fatalf("pool = %d after idle, hysteresis never shrank it", w)
	}
	if n := s.Telemetry().Counter("elastic.scale_down").Value(); n < 1 {
		t.Fatalf("scale_down = %d, want >= 1", n)
	}
}

// flakyPeer fails the first n requests at the transport level (hijack +
// close, so the client sees a connection error, not an HTTP status) and
// then serves the given status.
func flakyPeer(t *testing.T, failFirst int, thenStatus int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n <= int64(failFirst) {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("test listener cannot hijack")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatalf("hijack: %v", err)
			}
			conn.Close()
			return
		}
		w.WriteHeader(thenStatus)
		if thenStatus == http.StatusOK {
			json.NewEncoder(w).Encode(&jobs.Outcome{})
		}
	}))
	t.Cleanup(ts.Close)
	return ts, &calls
}

// TestFleetFetchRetryTransient: a peer that drops two connections and
// then answers must be re-probed (with the retries counted) and the
// third probe's answer returned.
func TestFleetFetchRetryTransient(t *testing.T) {
	peer, calls := flakyPeer(t, 2, http.StatusOK)
	s, _ := testServer(t, Config{Workers: 1, QueueCap: 8}, false)
	s.ConfigureFleet("r0", map[string]string{
		"r0": "127.0.0.1:1",
		"p":  strings.TrimPrefix(peer.URL, "http://"),
	})

	res := s.currentFleet().fetchPeerCache("p", "deadbeef")
	if res.status != http.StatusOK || res.outcome == nil {
		t.Fatalf("fetch after transient failures: status=%d outcome=%v", res.status, res.outcome)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("peer probed %d times, want 3 (1 probe + 2 retries)", n)
	}
	if n := s.Telemetry().Counter("svc.fleet.fetch_retries").Value(); n != 2 {
		t.Fatalf("svc.fleet.fetch_retries = %d, want 2", n)
	}
}

// TestFleetFetchRetryBounded: a peer that never answers is given up on
// after the retry budget — and an HTTP miss (404) is an answer, not a
// failure, so it must not be retried at all.
func TestFleetFetchRetryBounded(t *testing.T) {
	down, downCalls := flakyPeer(t, 1<<30, 0)
	miss, missCalls := flakyPeer(t, 0, http.StatusNotFound)
	s, _ := testServer(t, Config{Workers: 1, QueueCap: 8}, false)
	s.ConfigureFleet("r0", map[string]string{
		"r0":   "127.0.0.1:1",
		"down": strings.TrimPrefix(down.URL, "http://"),
		"miss": strings.TrimPrefix(miss.URL, "http://"),
	})
	f := s.currentFleet()

	if res := f.fetchPeerCache("down", "deadbeef"); res.status != 0 {
		t.Fatalf("dead peer: status = %d, want 0", res.status)
	}
	if n := downCalls.Load(); n != int64(1+fetchRetries) {
		t.Fatalf("dead peer probed %d times, want %d", n, 1+fetchRetries)
	}
	if res := f.fetchPeerCache("miss", "deadbeef"); res.status != http.StatusNotFound {
		t.Fatalf("missing hash: status = %d, want 404", res.status)
	}
	if n := missCalls.Load(); n != 1 {
		t.Fatalf("404 answer re-probed: %d calls, want 1", n)
	}
	if res := f.fetchPeerCache("stranger", "deadbeef"); res.status != 0 {
		t.Fatalf("unknown member: status = %d, want 0 with no probes", res.status)
	}
}

// TestFetchBackoffJitterBounds: the retry backoff is full jitter inside
// [0, 5ms * 2^attempt) and deterministic per (peer, hash, attempt).
func TestFetchBackoffJitterBounds(t *testing.T) {
	for attempt := 0; attempt < 4; attempt++ {
		window := 5 * time.Millisecond << uint(attempt)
		for _, peer := range []string{"r1", "r2", "far-away"} {
			d := fetchBackoff(peer, "deadbeef", attempt)
			if d < 0 || d >= window {
				t.Fatalf("fetchBackoff(%q, %d) = %v outside [0, %v)", peer, attempt, d, window)
			}
			if d != fetchBackoff(peer, "deadbeef", attempt) {
				t.Fatalf("fetchBackoff(%q, %d) not deterministic", peer, attempt)
			}
		}
	}
}

// TestReadyzRebalancing503: while a join handshake is in flight the
// replica must fail readiness (load balancers stop routing to it) and
// report the rank-pool size and epoch; after commit it is ready again.
func TestReadyzRebalancing503(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2, QueueCap: 8}, true)
	m := mpi.NewMembership(2, s.Telemetry())
	s.AttachMembership(m)

	readyz := func() (readyzResponse, int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rz readyzResponse
		if err := json.NewDecoder(resp.Body).Decode(&rz); err != nil {
			t.Fatal(err)
		}
		return rz, resp.StatusCode
	}

	rz, code := readyz()
	if code != http.StatusOK || rz.Status != "ready" {
		t.Fatalf("before handshake: HTTP %d status %q", code, rz.Status)
	}
	if rz.Workers != 2 || rz.PoolEpoch != 0 {
		t.Fatalf("readyz pool report: workers=%d epoch=%d, want 2/0", rz.Workers, rz.PoolEpoch)
	}

	m.Announce(1, "joiner")
	if !m.BeginRebalance() {
		t.Fatal("BeginRebalance failed")
	}
	rz, code = readyz()
	if code != http.StatusServiceUnavailable || rz.Status != "rebalancing" || !rz.Rebalancing {
		t.Fatalf("during handshake: HTTP %d status %q rebalancing=%v, want 503/rebalancing/true",
			code, rz.Status, rz.Rebalancing)
	}

	m.CommitJoins(nil)
	s.Resize(3) // the committed rank actually enters the pool
	rz, code = readyz()
	if code != http.StatusOK || rz.Status != "ready" {
		t.Fatalf("after commit: HTTP %d status %q", code, rz.Status)
	}
	if rz.Workers != 3 || rz.PoolEpoch != 1 {
		t.Fatalf("after grow: workers=%d epoch=%d, want 3/1", rz.Workers, rz.PoolEpoch)
	}
}

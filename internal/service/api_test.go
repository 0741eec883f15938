package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/jobs"
)

// h2Spec returns a distinct-hash h2 spec (MaxIter is part of the
// canonical hash, so varying it varies the hash).
func h2Spec(iter int) jobs.Spec {
	return jobs.Spec{Molecule: "h2", Basis: "sto-3g", Mode: jobs.ModeSerial, MaxIter: iter}
}

func getList(t *testing.T, ts *httptest.Server, query string) (listResponse, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs" + query)
	if err != nil {
		t.Fatalf("GET /v1/jobs%s: %v", query, err)
	}
	defer resp.Body.Close()
	var out listResponse
	if resp.StatusCode < 400 {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode list: %v", err)
		}
	}
	return out, resp.StatusCode
}

func TestListJobsFilterAndPagination(t *testing.T) {
	// No workers: every submission deterministically sits queued.
	_, ts := testServer(t, Config{Workers: 1, QueueCap: 16}, false)
	for i := 0; i < 5; i++ {
		if _, resp := postJob(t, ts, h2Spec(40+i)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
	}

	all, status := getList(t, ts, "")
	if status != http.StatusOK || all.Total != 5 || len(all.Jobs) != 5 {
		t.Fatalf("list all: status %d total %d len %d, want 200/5/5", status, all.Total, len(all.Jobs))
	}
	for i := 1; i < len(all.Jobs); i++ {
		if all.Jobs[i-1].ID >= all.Jobs[i].ID {
			t.Fatalf("list not ID-ordered: %s before %s", all.Jobs[i-1].ID, all.Jobs[i].ID)
		}
	}

	// Paginate with limit 2: three pages, cursors chaining.
	var paged []string
	after := ""
	for pages := 0; pages < 4; pages++ {
		page, status := getList(t, ts, "?limit=2&after="+after)
		if status != http.StatusOK {
			t.Fatalf("page status %d", status)
		}
		for _, j := range page.Jobs {
			paged = append(paged, j.ID)
		}
		if page.Next == "" {
			break
		}
		after = page.Next
	}
	if len(paged) != 5 {
		t.Fatalf("pagination yielded %d jobs, want 5 (%v)", len(paged), paged)
	}

	queued, _ := getList(t, ts, "?status=queued")
	if queued.Total != 5 {
		t.Fatalf("status=queued total %d, want 5", queued.Total)
	}
	done, _ := getList(t, ts, "?status=done")
	if done.Total != 0 || len(done.Jobs) != 0 {
		t.Fatalf("status=done total %d len %d, want 0/0", done.Total, len(done.Jobs))
	}
	if _, status := getList(t, ts, "?status=bogus"); status != http.StatusBadRequest {
		t.Fatalf("bad status filter: %d, want 400", status)
	}
	if _, status := getList(t, ts, "?limit=-1"); status != http.StatusBadRequest {
		t.Fatalf("bad limit: %d, want 400", status)
	}
}

func TestTenantQuota(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueCap: 16, TenantQuota: 2}, false)
	withTenant := func(iter int, tenant string) jobs.Spec {
		s := h2Spec(iter)
		s.Tenant = tenant
		return s
	}
	for i := 0; i < 2; i++ {
		if _, resp := postJob(t, ts, withTenant(50+i, "acme")); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("acme submit %d: status %d, want 202", i, resp.StatusCode)
		}
	}
	_, resp := postJob(t, ts, withTenant(52, "acme"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quota 429 missing Retry-After")
	}
	// A different tenant is unaffected — the queue still has room.
	if _, resp := postJob(t, ts, withTenant(53, "other")); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other-tenant submit: status %d, want 202", resp.StatusCode)
	}
}

func TestDynamicRetryAfter(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueCap: 1}, false)
	// Before any job has run, the constant floor applies.
	if _, resp := postJob(t, ts, h2Spec(60)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fill submit: %d", resp.StatusCode)
	}
	_, resp := postJob(t, ts, h2Spec(61))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("floor Retry-After %q, want \"1\"", got)
	}
	// With an observed p50 of ~3s and depth 1 on 1 worker, the estimate
	// is p50 × (depth+1) / workers = 6s.
	s.Telemetry().Histogram("svc.job.run_ns").Observe((3 * time.Second).Nanoseconds())
	_, resp = postJob(t, ts, h2Spec(61))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "6" {
		t.Fatalf("drain-rate Retry-After %q, want \"6\"", got)
	}
	// Slow outliers cannot push the hint past the constant ceiling.
	for i := 0; i < 2; i++ {
		s.Telemetry().Histogram("svc.job.run_ns").Observe(time.Hour.Nanoseconds())
	}
	_, resp = postJob(t, ts, h2Spec(61))
	if got := resp.Header.Get("Retry-After"); got != "60" {
		t.Fatalf("clamped Retry-After %q, want \"60\"", got)
	}
}

func TestCacheProbeEndpoint(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueCap: 16}, false)
	spec := h2Spec(70)
	hash, err := spec.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	probe := func() int {
		resp, err := http.Get(ts.URL + "/v1/cache/" + hash)
		if err != nil {
			t.Fatalf("probe: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := probe(); got != http.StatusNotFound {
		t.Fatalf("cold probe: %d, want 404", got)
	}
	if _, resp := postJob(t, ts, spec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if got := probe(); got != http.StatusAccepted {
		t.Fatalf("queued probe: %d, want 202", got)
	}
	s.cache.Put(hash, &jobs.Outcome{Energy: -1, Converged: true})
	if got := probe(); got != http.StatusOK {
		t.Fatalf("warm probe: %d, want 200", got)
	}
	// Probes must not distort the cache effectiveness counters.
	if hits, misses := s.cache.Stats(); hits != 0 || misses != 1 {
		// one miss from the original submit's cache.Get
		t.Fatalf("probe distorted counters: hits %d misses %d, want 0/1", hits, misses)
	}
}

func TestExecutionsTracksLocalRuns(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueCap: 16}, true)
	spec := h2Spec(80)
	hash, _ := spec.CanonicalHash()
	out, resp := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st := getStatus(t, ts, out.ID); st.State == jobs.StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := s.Executions()[hash]; n != 1 {
		t.Fatalf("executions[%s] = %d, want 1", hash, n)
	}
	// A duplicate is a cache hit: no second execution.
	if out2, resp2 := postJob(t, ts, spec); resp2.StatusCode != http.StatusOK || !out2.Cached {
		t.Fatalf("dup submit: status %d cached %v", resp2.StatusCode, out2.Cached)
	}
	if n := s.Executions()[hash]; n != 1 {
		t.Fatalf("dup caused re-execution: %d", n)
	}
}

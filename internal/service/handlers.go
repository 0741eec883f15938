package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/jobs"
	"repro/internal/telemetry"
)

// maxSpecBytes bounds a POST body — generous for inline XYZ geometries
// (the 5.0 nm paper system is ~100 KB) while keeping admission cheap.
const maxSpecBytes = 4 << 20

// statusRecorder captures the status code a handler writes so the
// per-route request counter can label it.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// counted wraps a handler with the svc.http.requests{route=,code=}
// labeled counter.
func (s *Server) counted(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(sr, r)
		s.tel.Counter(fmt.Sprintf("svc.http.requests{route=%q,code=%q}",
			route, strconv.Itoa(sr.code))).Add(1)
	}
}

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.counted("/v1/jobs", s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", s.counted("/v1/jobs", s.handleList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.counted("/v1/jobs/{id}", s.handleGet))
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.counted("/v1/jobs/{id}/trace", s.handleWaterfall))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.counted("/v1/jobs/{id}", s.handleCancel))
	mux.HandleFunc("GET /v1/cache/{hash}", s.counted("/v1/cache/{hash}", s.handleCacheProbe))
	mux.HandleFunc("GET /v1/queue", s.counted("/v1/queue", s.handleQueue))
	mux.HandleFunc("GET /v1/debug/flight", s.counted("/v1/debug/flight", s.handleFlight))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// SubmitResponse is the POST /v1/jobs body.
type SubmitResponse struct {
	ID        string        `json:"id"`
	Hash      string        `json:"hash"`
	State     jobs.State    `json:"state"`
	Cached    bool          `json:"cached,omitempty"`    // served straight from the result cache
	Coalesced bool          `json:"coalesced,omitempty"` // deduped onto an identical in-flight job
	Result    *jobs.Outcome `json:"result,omitempty"`
	NumBF     int           `json:"num_basis_functions,omitempty"`
	Replica   string        `json:"replica,omitempty"`  // fleet member that accepted the job
	TraceID   string        `json:"trace_id,omitempty"` // request trace (also in X-HF-Trace)
}

// ErrorResponse is the body of every 4xx/5xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() {
		s.tel.Histogram("svc.request.post_ns").Observe(time.Since(start).Nanoseconds())
	}()

	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "server is draining"})
		return
	}
	// Trace ingress: inherit a propagated trace ID (fleet forward, client
	// correlation header) or mint a fresh one. Every response carries the
	// trace back in X-HF-Trace, and every span the job produces — down to
	// individual MPI ops — is stamped with it.
	trace := telemetry.SanitizeTraceID(r.Header.Get(telemetry.TraceHeader))
	if trace != "" {
		s.tel.Counter("svc.trace.propagated").Add(1)
	} else {
		trace = telemetry.NewTraceID()
		s.tel.Counter("svc.trace.minted").Add(1)
	}
	w.Header().Set(telemetry.TraceHeader, trace)
	ttel := s.tel.WithTrace(trace)
	var spec jobs.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad job spec: " + err.Error()})
		return
	}
	info, err := spec.Validate()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	spec = spec.Normalized()
	hash, err := spec.CanonicalHash()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}

	f := s.currentFleet()
	self := ""
	if f != nil {
		self = f.self
	}

	// Dedup layer 1: a finished identical job serves straight from cache,
	// regardless of ring ownership — cached is cached.
	if out, ok := s.cache.Get(hash); ok {
		j := jobs.NewCachedJob(s.newID(), hash, spec, out, time.Now())
		j.Trace = trace
		s.register(j, false)
		ttel.Instant("svc.submit", "cache-hit", telemetry.DriverPid, 0,
			map[string]any{"job": j.ID, "hash": hash})
		writeJSON(w, http.StatusOK, SubmitResponse{
			ID: j.ID, Hash: hash, State: jobs.StateDone, Cached: true,
			Result: out, NumBF: info.NumBF, Replica: self, TraceID: trace,
		})
		return
	}

	// Fleet routing: a submit for a hash this replica does not own goes
	// to the owner — its cache first (one GET beats re-running an SCF),
	// then a forwarded POST. A forwarded request (loop guard) or an
	// unreachable owner is handled locally: hand-off trades placement for
	// availability, and the last-chance dedup in runJob still prevents a
	// duplicate execution.
	if f != nil && r.Header.Get(forwardedHeader) == "" {
		if owner := f.ring.Owner(hash); owner != f.self {
			if res := f.fetchPeerCache(owner, hash); res.status == http.StatusOK && res.outcome != nil {
				s.tel.Counter("svc.fleet.peer_hit").Add(1)
				s.cache.Put(hash, res.outcome)
				j := jobs.NewCachedJob(s.newID(), hash, spec, res.outcome, time.Now())
				j.Trace = trace
				s.register(j, false)
				ttel.Instant("svc.submit", "peer-hit", telemetry.DriverPid, 0,
					map[string]any{"job": j.ID, "hash": hash, "owner": owner})
				writeJSON(w, http.StatusOK, SubmitResponse{
					ID: j.ID, Hash: hash, State: jobs.StateDone, Cached: true,
					Result: res.outcome, NumBF: info.NumBF, Replica: self, TraceID: trace,
				})
				return
			}
			if s.forwardSubmit(w, owner, spec, trace) {
				return
			}
			s.tel.Counter("svc.fleet.handoff").Add(1)
		}
	}

	// Dedup layer 2: coalesce onto an identical queued/running job — the
	// duplicate costs nothing and resolves when the original does.
	if prior := s.activeByHash(hash); prior != nil && !prior.State().Terminal() {
		s.tel.Counter("svc.jobs.coalesced").Add(1)
		// The coalesced submission rides the prior job's trace — that is the
		// trace its spans will actually carry.
		ttel.Instant("svc.submit", "coalesced", telemetry.DriverPid, 0,
			map[string]any{"job": prior.ID, "hash": hash})
		writeJSON(w, http.StatusAccepted, SubmitResponse{
			ID: prior.ID, Hash: hash, State: prior.State(), Coalesced: true,
			NumBF: info.NumBF, Replica: self, TraceID: prior.Trace,
		})
		return
	}

	// Admission, gate 1: the per-tenant quota — one tenant flooding the
	// queue cannot starve the rest of the fleet's clients.
	if s.tenantOverQuota(spec.Tenant) {
		s.tel.Counter("svc.jobs.quota_rejected").Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests,
			ErrorResponse{Error: "tenant quota exceeded, retry later"})
		return
	}

	// Admission, gate 2: the bounded queue is the backpressure valve.
	j := jobs.NewJob(s.newID(), hash, spec, time.Now())
	j.Trace = trace // before publication: immutable once the queue can see it
	if err := s.queue.Submit(j); err != nil {
		s.tel.Counter("svc.jobs.rejected").Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		status := http.StatusTooManyRequests
		msg := "queue full, retry later"
		if err == jobs.ErrQueueClosed {
			status = http.StatusServiceUnavailable
			msg = "server is draining"
		}
		writeJSON(w, status, ErrorResponse{Error: msg})
		return
	}
	// Persist, then serve: the accept record must be durable before the
	// client sees 202, or a crash could lose an acknowledged job.
	if walErr := s.wal.AppendAccept(j, time.Now()); walErr != nil {
		s.queue.Remove(j.ID)
		writeJSON(w, http.StatusServiceUnavailable,
			ErrorResponse{Error: "write-ahead log unavailable: " + walErr.Error()})
		return
	}
	s.register(j, true)
	s.tel.Counter("svc.jobs.accepted").Add(1)
	if t := sanitizeLabelValue(spec.Tenant); t != "" {
		s.tel.Counter(fmt.Sprintf("svc.jobs.accepted{tenant=%q}", t)).Add(1)
	}
	s.observeDepth()
	ttel.Instant("svc.submit", "accepted", telemetry.DriverPid, 0,
		map[string]any{"job": j.ID, "hash": hash})
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID: j.ID, Hash: hash, State: jobs.StateQueued, NumBF: info.NumBF,
		Replica: self, TraceID: trace,
	})
}

// sanitizeLabelValue bounds a client-supplied string (tenant name) before
// it becomes a metric label: [a-zA-Z0-9_-] survive, the rest drop, length
// capped — arbitrary client bytes must not mint unbounded label values.
func sanitizeLabelValue(v string) string {
	var b strings.Builder
	for _, c := range v {
		if b.Len() >= 48 {
			break
		}
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
			b.WriteRune(c)
		}
	}
	return b.String()
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown job id"})
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

// listResponse is the GET /v1/jobs body: one bounded page of job
// statuses in ID order plus the cursor for the next page.
type listResponse struct {
	Jobs  []jobs.Status `json:"jobs"`
	Next  string        `json:"next,omitempty"` // pass as ?after= for the next page
	Total int           `json:"total"`          // matching jobs across all pages
}

// List pagination bounds.
const (
	defaultListLimit = 50
	maxListLimit     = 500
)

// handleList serves GET /v1/jobs?status=<s>&limit=<n>&after=<id>:
// ID-ordered, optionally filtered by lifecycle state, paginated with a
// hard page-size ceiling so one request can never marshal the entire
// registry of a long-lived server.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	filter := q.Get("status")
	switch jobs.State(filter) {
	case "", jobs.StateQueued, jobs.StateRunning, jobs.StateDone, jobs.StateFailed, jobs.StateCanceled:
	default:
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf(
			"unknown status %q (want queued, running, done, failed, or canceled)", filter)})
		return
	}
	limit := defaultListLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "limit must be a positive integer"})
			return
		}
		limit = n
	}
	if limit > maxListLimit {
		limit = maxListLimit
	}
	after := q.Get("after")

	s.mu.Lock()
	all := make([]*jobs.Job, 0, len(s.byID))
	for _, j := range s.byID {
		all = append(all, j)
	}
	s.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })

	resp := listResponse{Jobs: []jobs.Status{}}
	for _, j := range all {
		st := j.Snapshot()
		if filter != "" && st.State != jobs.State(filter) {
			continue
		}
		resp.Total++
		if j.ID <= after || len(resp.Jobs) >= limit {
			continue
		}
		resp.Jobs = append(resp.Jobs, st)
	}
	if n := len(resp.Jobs); n == limit && n < resp.Total {
		resp.Next = resp.Jobs[n-1].ID
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCacheProbe serves GET /v1/cache/{hash} — the intra-fleet
// peer-fetch path: 200 + outcome when the result is cached here, 202
// when an identical job is queued or running here (the caller may wait),
// 404 otherwise. Peek, not Get: a peer probe must not distort this
// replica's LRU order or hit/miss accounting.
func (s *Server) handleCacheProbe(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if out, ok := s.cache.Peek(hash); ok {
		writeJSON(w, http.StatusOK, out)
		return
	}
	if prior := s.activeByHash(hash); prior != nil && !prior.State().Terminal() {
		writeJSON(w, http.StatusAccepted, map[string]string{"state": string(prior.State())})
		return
	}
	writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "not cached"})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown job id"})
		return
	}
	switch j.State() {
	case jobs.StateQueued:
		// Pull it out of the queue first so no worker claims it; if a
		// worker won the race, fall through to the running path.
		if s.queue.Remove(j.ID) {
			now := time.Now()
			_ = s.wal.AppendState(j.ID, jobs.StateCanceled, j.Attempts(), "canceled by request", nil, now)
			if changed, _ := j.MarkCanceled("canceled by request", now); changed {
				s.tel.Counter("svc.jobs.canceled").Add(1)
			}
			s.retireHash(j)
			s.observeDepth()
		} else {
			j.Cancel()
		}
	case jobs.StateRunning:
		// Signal the in-flight context; the worker records the terminal
		// state when the SCF loop observes it at the next iteration.
		j.Cancel()
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

// queueResponse is the GET /v1/queue body.
type queueResponse struct {
	Depth    int            `json:"depth"`
	Capacity int            `json:"capacity"`
	Workers  int            `json:"workers"`
	Draining bool           `json:"draining"`
	States   map[string]int `json:"states"`
	Replica  string         `json:"replica,omitempty"`
	Fleet    []string       `json:"fleet,omitempty"`
}

func (s *Server) handleQueue(w http.ResponseWriter, r *http.Request) {
	states := map[string]int{}
	s.mu.Lock()
	for _, j := range s.byID {
		states[string(j.State())]++
	}
	s.mu.Unlock()
	resp := queueResponse{
		Depth:    s.queue.Len(),
		Capacity: s.queue.Cap(),
		Workers:  s.cfg.Workers,
		Draining: s.Draining(),
		States:   states,
	}
	if ring, self := s.Fleet(); ring != nil {
		resp.Replica = self
		resp.Fleet = ring.Members()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is pure liveness: if the process can run this handler,
// it is alive — 200 even while draining (a draining server is alive, it
// is just not ready; that distinction lives at /readyz).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyzResponse is the GET /readyz body.
type readyzResponse struct {
	Status           string   `json:"status"` // ready | draining | killed
	Replica          string   `json:"replica,omitempty"`
	Workers          int      `json:"workers"` // live (post-resize) worker-pool size
	PoolEpoch        int64    `json:"pool_epoch"`
	QueueDepth       int      `json:"queue_depth"`
	QueueCap         int      `json:"queue_cap"`
	WALSegments      int      `json:"wal_segments,omitempty"`
	Ring             []string `json:"ring,omitempty"`
	RecoveredBacklog int      `json:"recovered_backlog,omitempty"`
}

// handleReadyz is readiness: 200 with the replica's serving state when
// it can accept work; 503 while draining or killed. Fleet experiments poll this instead of sleeping after boot.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	workers := s.WorkerCount()
	if workers == 0 {
		workers = s.cfg.Workers // pool not started yet: report the configured size
	}
	resp := readyzResponse{
		Status:           "ready",
		Workers:          workers,
		PoolEpoch:        s.PoolEpoch(),
		QueueDepth:       s.queue.Len(),
		QueueCap:         s.queue.Cap(),
		WALSegments:      s.wal.Segments(),
		RecoveredBacklog: s.recoveredPending,
	}
	if ring, self := s.Fleet(); ring != nil {
		resp.Replica = self
		resp.Ring = ring.Members()
	}
	status := http.StatusOK
	switch {
	case s.killed.Load():
		resp.Status = "killed"
		status = http.StatusServiceUnavailable
	case s.Draining():
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// handleMetrics serves the telemetry registry: Prometheus text
// exposition by default (replica as a const label on every series),
// the raw registry snapshot as JSON with ?format=json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = s.tel.Registry.WriteJSON(w)
		return
	}
	labels := map[string]string{}
	if _, self := s.Fleet(); self != "" {
		labels["replica"] = self
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.tel.Registry.WritePrometheus(w, labels)
}

// WaterfallSpan is one stitched span in a job's waterfall.
type WaterfallSpan struct {
	Cat     string         `json:"cat"`
	Name    string         `json:"name"`
	Pid     int            `json:"pid"`
	Tid     int            `json:"tid"`
	StartUS float64        `json:"start_us"`         // µs since this replica's trace origin
	DurUS   float64        `json:"dur_us,omitempty"` // 0 for instants
	Phase   string         `json:"phase"`            // span | instant
	Args    map[string]any `json:"args,omitempty"`
}

// WaterfallResponse is the GET /v1/jobs/{id}/trace body: everything this
// replica recorded under the job's trace ID, in start order, plus the
// job-level timings (queue wait synthesized from the status record —
// waiting in a queue emits no span).
type WaterfallResponse struct {
	Job         string          `json:"job"`
	TraceID     string          `json:"trace_id"`
	State       jobs.State      `json:"state"`
	Cached      bool            `json:"cached,omitempty"`
	QueueWaitMS float64         `json:"queue_wait_ms,omitempty"`
	TotalMS     float64         `json:"total_ms,omitempty"`
	Spans       []WaterfallSpan `json:"spans"`
	Categories  map[string]int  `json:"categories"` // span count per category
}

// handleWaterfall serves the stitched per-job waterfall: every span and
// instant on this replica's recorder carrying the job's trace ID. For a
// job forwarded from another replica the trace ID is the join key — the
// caller merges waterfalls (or trace files) from each replica the
// request crossed.
func (s *Server) handleWaterfall(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown job id"})
		return
	}
	st := j.Snapshot()
	resp := WaterfallResponse{
		Job: j.ID, TraceID: j.Trace, State: st.State, Cached: st.Cached,
		QueueWaitMS: st.QueueWaitMS, TotalMS: st.TotalMS,
		Spans: []WaterfallSpan{}, Categories: map[string]int{},
	}
	if j.Trace != "" {
		for _, e := range s.tel.Recorder.Events() {
			if id, _ := e.Args[telemetry.TraceArgKey].(string); id != j.Trace {
				continue
			}
			phase := "span"
			if e.Ph == telemetry.PhaseInstant {
				phase = "instant"
			}
			resp.Spans = append(resp.Spans, WaterfallSpan{
				Cat: e.Cat, Name: e.Name, Pid: e.Pid, Tid: e.Tid,
				StartUS: e.Ts, DurUS: e.Dur, Phase: phase, Args: e.Args,
			})
			resp.Categories[e.Cat]++
		}
		sort.SliceStable(resp.Spans, func(a, b int) bool {
			if resp.Spans[a].StartUS != resp.Spans[b].StartUS {
				return resp.Spans[a].StartUS < resp.Spans[b].StartUS
			}
			return resp.Spans[a].DurUS > resp.Spans[b].DurUS // parents before children
		})
	}
	s.tel.Counter("svc.trace.waterfalls").Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// handleFlight serves the most recent flight dump — the tail of the
// event ring as trace events (404 before any dump has fired).
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	d := s.tel.Recorder.LastDump()
	if d == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "no flight dump recorded"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = d.WriteJSON(w)
}

package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// --- Histogram.Percentile edge cases -------------------------------------

func TestPercentileEmpty(t *testing.T) {
	var h Histogram
	for _, p := range []float64{0, 0.5, 1} {
		if got := h.Percentile(p); got != 0 {
			t.Errorf("empty histogram Percentile(%g) = %d, want 0", p, got)
		}
	}
	var nilH *Histogram
	if got := nilH.Percentile(0.5); got != 0 {
		t.Errorf("nil histogram Percentile = %d, want 0", got)
	}
}

func TestPercentileSingleObservation(t *testing.T) {
	var h Histogram
	h.Observe(100)
	// Every quantile of a one-point distribution is that point; the
	// bucket bound (128) must be clamped to the observed max.
	for _, p := range []float64{0, 0.001, 0.5, 1, 2} {
		if got := h.Percentile(p); got != 100 {
			t.Errorf("Percentile(%g) = %d, want 100", p, got)
		}
	}
}

func TestPercentileBounds(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	p0 := h.Percentile(0) // clamps to the first observation's bucket
	p50 := h.Percentile(0.5)
	p99 := h.Percentile(0.99)
	p100 := h.Percentile(1)
	if p100 != h.Max() {
		t.Errorf("p100 = %d, want max %d", p100, h.Max())
	}
	if !(p0 <= p50 && p50 <= p99 && p99 <= p100) {
		t.Errorf("percentiles not monotone: p0=%d p50=%d p99=%d p100=%d", p0, p50, p99, p100)
	}
	// Log2 buckets: p50 of 1..1000 must land in the bucket covering 500,
	// i.e. upper bound 512.
	if p50 != 512 {
		t.Errorf("p50 = %d, want 512 (log2 bucket covering 500)", p50)
	}
}

// --- Prometheus exposition ------------------------------------------------

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("svc.jobs.accepted").Add(2)
	r.Counter(`svc.http.requests{route="/v1/jobs",code="202"}`).Add(3)
	r.Gauge("svc.queue.depth").Set(1)
	r.Histogram("svc.queue.depth").Observe(2) // name collides with the gauge
	h := r.Histogram("svc.queue.wait_ns")
	h.Observe(1)
	h.Observe(1024)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, map[string]string{"replica": "r0"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# TYPE hf_svc_jobs_accepted_total counter\n",
		`hf_svc_jobs_accepted_total{replica="r0"} 2` + "\n",
		`hf_svc_http_requests_total{replica="r0",route="/v1/jobs",code="202"} 3` + "\n",
		"# TYPE hf_svc_queue_depth gauge\n",
		`hf_svc_queue_depth{replica="r0"} 1` + "\n",
		// gauge/histogram name collision: the histogram gains _hist
		"# TYPE hf_svc_queue_depth_hist histogram\n",
		// _ns histograms export in seconds with cumulative le buckets
		"# TYPE hf_svc_queue_wait_seconds histogram\n",
		`hf_svc_queue_wait_seconds_bucket{replica="r0",le="1e-09"} 1` + "\n",
		`hf_svc_queue_wait_seconds_bucket{replica="r0",le="+Inf"} 2` + "\n",
		`hf_svc_queue_wait_seconds_count{replica="r0"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Cumulative: the 1024ns bucket must count both observations.
	if !strings.Contains(out, `le="1.024e-06"} 2`) {
		t.Errorf("1024ns bucket not cumulative:\n%s", out)
	}
	// Deterministic output.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2, map[string]string{"replica": "r0"}); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Error("WritePrometheus output not deterministic")
	}
}

// --- Trace IDs ------------------------------------------------------------

func TestTraceIDMintAndSanitize(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 16 || a == b {
		t.Errorf("minted IDs %q, %q: want 16 hex chars, distinct", a, b)
	}
	if got := SanitizeTraceID(a); got != a {
		t.Errorf("minted ID rejected by sanitizer: %q -> %q", a, got)
	}
	cases := map[string]string{
		"deadbeef01234567":      "deadbeef01234567",
		"AB-12-cd":              "AB-12-cd",
		"":                      "",
		"not hex!":              "",
		"ghij":                  "",
		strings.Repeat("a", 65): "",
	}
	for in, want := range cases {
		if got := SanitizeTraceID(in); got != want {
			t.Errorf("SanitizeTraceID(%q) = %q, want %q", in, got, want)
		}
	}
}

// --- Flight recorder ------------------------------------------------------

func TestFlightRecorderRing(t *testing.T) {
	f := &FlightRecorder{buf: make([]FlightEntry, 4)} // a 4-entry ring wraps within the test
	var dumped *FlightDump
	f.SetOnDump(func(d *FlightDump) { dumped = d })
	for i := 0; i < 6; i++ {
		f.Note(FlightEntry{Kind: FlightLog, Msg: strings.Repeat("x", i+1)})
	}
	d := f.Dump("test")
	if d.Recorded != 6 || !d.Truncated || len(d.Entries) != 4 {
		t.Fatalf("dump recorded=%d truncated=%v entries=%d, want 6/true/4",
			d.Recorded, d.Truncated, len(d.Entries))
	}
	// Chronological: the oldest surviving entry is #3 (len 3).
	if got := d.Entries[0].Msg; got != "xxx" {
		t.Errorf("oldest surviving entry %q, want \"xxx\"", got)
	}
	if got := d.Entries[3].Msg; got != "xxxxxx" {
		t.Errorf("newest entry %q, want \"xxxxxx\"", got)
	}
	if dumped != d || f.LastDump() != d {
		t.Error("OnDump callback / LastDump disagree with the returned dump")
	}

	var nilF *FlightRecorder
	nilF.Note(FlightEntry{})
	if nilF.Dump("x") != nil || nilF.LastDump() != nil || nilF.Recorded() != 0 {
		t.Error("nil FlightRecorder not inert")
	}
}

// --- Trace stamping + continuity ------------------------------------------

// recordChain records one full traced request chain plus optional
// untraced background spans into a fresh session and returns the trace
// JSON.
func recordChain(t *testing.T, traceID string, orphan bool) []byte {
	t.Helper()
	s := NewSession()
	ts := s.WithTrace(traceID)
	for _, c := range []struct{ cat, name string }{
		{"svc.job", "job-1"},
		{"job.run", "serial"},
		{"scf.iter", "iter-1"},
		{"fock.build", "shared"},
		{"mpi.op", "allreduce"},
	} {
		ts.Span(c.cat, c.name, DriverPid, 0, nil)()
	}
	if orphan {
		s.Span("fock.task", "pair", 0, 1, nil)() // untraced span in a traced category
	}
	s.Span("recovery.restore", "ckpt", 0, 0, nil)() // non-traced category: always fine
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWithTraceStampsSpanArgs(t *testing.T) {
	s := NewSession()
	ts := s.WithTrace("feedface00000001")
	if ts == s {
		t.Fatal("WithTrace returned the untraced receiver")
	}
	if s.WithTrace("") != s {
		t.Error("WithTrace(\"\") should return the receiver unchanged")
	}
	ts.Span("svc.job", "j", DriverPid, 0, map[string]any{"k": "v"})()
	ts.Instant("svc.submit", "accepted", DriverPid, 0, nil)
	events := s.Recorder.Events()
	if len(events) != 2 {
		t.Fatalf("recorded %d events, want 2", len(events))
	}
	for _, e := range events {
		if e.Args[TraceArgKey] != "feedface00000001" {
			t.Errorf("%s %q args = %v, want trace stamped", e.Cat, e.Name, e.Args)
		}
	}
	if events[0].Args["k"] != "v" {
		t.Error("caller args lost when stamping the trace ID")
	}
}

func TestValidateContinuity(t *testing.T) {
	data := recordChain(t, "cafe000000000001", false)
	stats, err := ValidateContinuity(data)
	if err != nil {
		t.Fatalf("continuity: %v", err)
	}
	if stats.Traces != 1 || stats.Spans != 5 {
		t.Errorf("stats traces=%d spans=%d, want 1/5", stats.Traces, stats.Spans)
	}
	if stats.PerTrace["cafe000000000001"]["fock.build"] != 1 {
		t.Errorf("per-trace categories %v", stats.PerTrace)
	}
}

func TestValidateContinuityOrphan(t *testing.T) {
	data := recordChain(t, "cafe000000000002", true)
	if _, err := ValidateContinuity(data); err == nil || !strings.Contains(err.Error(), "orphan") {
		t.Fatalf("orphan span not rejected: %v", err)
	}
}

func TestValidateContinuityBrokenChain(t *testing.T) {
	s := NewSession()
	ts := s.WithTrace("cafe000000000003")
	ts.Span("svc.job", "j", DriverPid, 0, nil)() // never reaches scf/fock
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateContinuity(buf.Bytes()); err == nil || !strings.Contains(err.Error(), "chain broken") {
		t.Fatalf("broken chain not rejected: %v", err)
	}
}

func TestValidateContinuityInactive(t *testing.T) {
	// No svc.job spans at all (a standalone hfrun trace): untraced
	// scf/fock spans are fine and the file passes trivially.
	s := NewSession()
	s.Span("scf.iter", "iter-1", 0, 0, nil)()
	s.Span("fock.build", "shared", 0, 0, nil)()
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	stats, err := ValidateContinuity(buf.Bytes())
	if err != nil {
		t.Fatalf("inactive trace rejected: %v", err)
	}
	if stats.Traces != 0 || stats.Spans != 0 {
		t.Errorf("inactive stats %+v, want zeros", stats)
	}
}

func TestSessionLogfAndDumpFlight(t *testing.T) {
	s := NewSession()
	s.Logf("svc", "job %s failed", "j-1")
	if got := s.Counter("obs.flight.records").Value(); got != 1 {
		t.Errorf("obs.flight.records = %d, want 1", got)
	}
	d := s.DumpFlight("test")
	if d == nil || len(d.Entries) != 1 || d.Entries[0].Msg != "job j-1 failed" {
		t.Fatalf("dump %+v, want the log line", d)
	}
	if got := s.Counter("obs.flight.dumps").Value(); got != 1 {
		t.Errorf("obs.flight.dumps = %d, want 1", got)
	}
	var nilS *Session
	nilS.Logf("svc", "x")
	if nilS.DumpFlight("x") != nil {
		t.Error("nil session DumpFlight not inert")
	}
}

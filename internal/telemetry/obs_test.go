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

// --- Event ring and flight dumps -----------------------------------------

// instantMsgs returns the args.msg of each event.
func instantMsgs(events []Event) []string {
	var out []string
	for _, e := range events {
		msg, _ := e.Args["msg"].(string)
		out = append(out, msg)
	}
	return out
}

func TestRecorderRingKeepsNewest(t *testing.T) {
	rec := NewRecorderWithClock(fakeClock(), 3)
	for i := 0; i < 5; i++ {
		rec.Instant("c", "e", 0, 0, map[string]any{"msg": strings.Repeat("x", i+1)})
	}
	got := instantMsgs(rec.Events())
	if want := []string{"xxx", "xxxx", "xxxxx"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("ring holds %v, want the last three in order %v", got, want)
	}
	if rec.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", rec.Dropped())
	}
}

func TestFlightRecorderRing(t *testing.T) {
	rec := NewRecorderWithClock(fakeClock(), 4) // a 4-event ring wraps within the test
	var dumped *FlightDump
	rec.SetOnDump(func(d *FlightDump) { dumped = d })
	for i := 0; i < 6; i++ {
		rec.Instant("svc", "log", DriverPid, 0, map[string]any{"msg": strings.Repeat("x", i+1)})
	}
	d := rec.Dump("test")
	if d.Recorded != 6 || !d.Truncated || len(d.Entries) != 4 {
		t.Fatalf("dump recorded=%d truncated=%v entries=%d, want 6/true/4",
			d.Recorded, d.Truncated, len(d.Entries))
	}
	// Chronological: the oldest surviving entry is #3 (len 3).
	msgs := instantMsgs(d.Entries)
	if msgs[0] != "xxx" {
		t.Errorf("oldest surviving entry %q, want \"xxx\"", msgs[0])
	}
	if msgs[3] != "xxxxxx" {
		t.Errorf("newest entry %q, want \"xxxxxx\"", msgs[3])
	}
	if dumped != d || rec.LastDump() != d {
		t.Error("OnDump callback / LastDump disagree with the returned dump")
	}

	var nilR *Recorder
	nilR.Instant("c", "e", 0, 0, nil)
	if nilR.Dump("x") != nil || nilR.LastDump() != nil || nilR.Dropped() != 0 {
		t.Error("nil Recorder not inert")
	}
}

// TestRingWrapsAcrossChunks: a ring larger than one storage chunk fills
// chunk by chunk, then overwrites its oldest events in order.
func TestRingWrapsAcrossChunks(t *testing.T) {
	max := ringChunk + 5
	rec := NewRecorderWithClock(fakeClock(), max)
	n := 2*ringChunk + 3
	for i := 0; i < n; i++ {
		rec.Instant("c", "e", 0, 0, map[string]any{"i": i})
	}
	events := rec.Events()
	if len(events) != max || rec.Dropped() != int64(n-max) {
		t.Fatalf("%d events held, %d dropped; want %d and %d", len(events), rec.Dropped(), max, n-max)
	}
	for k, e := range events {
		if e.Args["i"] != n-max+k {
			t.Fatalf("event %d is %v, want %d", k, e.Args["i"], n-max+k)
		}
	}
}

// TestDumpIsRingTail: a dump holds the newest min(flightEntries, n)
// events of the ring in order, and its entries load as a trace file.
func TestDumpIsRingTail(t *testing.T) {
	for _, n := range []int{1, flightEntries - 1, flightEntries, 3*flightEntries + 7} {
		rec := NewRecorderWithClock(fakeClock(), 2*flightEntries)
		for i := 0; i < n; i++ {
			rec.Instant("c", "e", 0, 0, map[string]any{"i": i})
		}
		d := rec.Dump("tail")
		want := min(flightEntries, n)
		if len(d.Entries) != want || d.Recorded != int64(n) || d.Truncated != (n > want) {
			t.Fatalf("n=%d: dump entries=%d recorded=%d truncated=%v, want %d/%d/%v",
				n, len(d.Entries), d.Recorded, d.Truncated, want, n, n > want)
		}
		for k, e := range d.Entries {
			if e.Args["i"] != n-want+k {
				t.Fatalf("n=%d: entry %d is event %v, want %d", n, k, e.Args["i"], n-want+k)
			}
		}
		var buf bytes.Buffer
		if err := WriteTraceEvents(&buf, d.Entries); err != nil {
			t.Fatal(err)
		}
		if stats, err := ValidateTrace(buf.Bytes()); err != nil || stats.Instants != want {
			t.Fatalf("n=%d: dump as a trace: %v (stats %+v)", n, err, stats)
		}
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
		ts.Start(c.cat, c.name, DriverPid, 0, nil).End(nil)
	}
	if orphan {
		s.Start("fock.task", "pair", 0, 1, nil).End(nil) // untraced span in a traced category
	}
	s.Start("recovery.restore", "ckpt", 0, 0, nil).End(nil) // non-traced category: always fine
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWithTraceStampsEventsNotArgs: a traced session stamps its trace ID
// on each event's own Trace field and leaves the caller's args maps as
// they were: each holds exactly its own keys afterwards.
func TestWithTraceStampsEventsNotArgs(t *testing.T) {
	s := NewSession()
	ts := s.WithTrace("feedface00000001")
	if ts == s {
		t.Fatal("WithTrace returned the untraced receiver")
	}
	if s.WithTrace("") != s {
		t.Error("WithTrace(\"\") should return the receiver unchanged")
	}
	spanArgs, instantArgs := map[string]any{"k": "v"}, map[string]any{"n": 1}
	ts.Start("svc.job", "j", DriverPid, 0, nil).End(spanArgs)
	ts.Instant("svc.submit", "accepted", DriverPid, 0, instantArgs)
	if len(spanArgs) != 1 || spanArgs["k"] != "v" || len(instantArgs) != 1 || instantArgs["n"] != 1 {
		t.Errorf("caller args changed: span %v, instant %v", spanArgs, instantArgs)
	}
	events := s.Recorder.Events()
	if len(events) != 2 {
		t.Fatalf("recorded %d events, want 2", len(events))
	}
	for _, e := range events {
		if e.Trace != "feedface00000001" {
			t.Errorf("%s %q trace = %q, want the session's", e.Cat, e.Name, e.Trace)
		}
	}
	if events[0].Args["k"] != "v" || events[1].Args["n"] != 1 {
		t.Error("caller args lost from the recorded events")
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
	ts.Start("svc.job", "j", DriverPid, 0, nil).End(nil) // never reaches scf/fock
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
	s.Start("scf.iter", "iter-1", 0, 0, nil).End(nil)
	s.Start("fock.build", "shared", 0, 0, nil).End(nil)
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
	s.Start("scf.iter", "iter-1", 0, 0, nil).End(nil)
	s.Logf("svc", "job %s failed", "j-1")
	if got := s.Counter("obs.flight.records").Value(); got != 1 {
		t.Errorf("obs.flight.records = %d, want 1", got)
	}
	d := s.DumpFlight("test")
	if d == nil || len(d.Entries) != 2 {
		t.Fatalf("dump %+v, want the span and the log line", d)
	}
	if e := d.Entries[1]; e.Ph != PhaseInstant || e.Cat != "svc" || e.Args["msg"] != "job j-1 failed" {
		t.Errorf("log line recorded as %+v, want an svc instant with args.msg", e)
	}
	if events := s.Recorder.Events(); len(events) != 2 {
		t.Errorf("ring holds %d events, want 2: each event is recorded once", len(events))
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

package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/telemetry"
)

// postJobTraced submits spec with an explicit X-HF-Trace header and
// returns the decoded response plus the trace header echoed back.
func postJobTraced(t *testing.T, url string, spec jobs.Spec, trace string) (SubmitResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set(telemetry.TraceHeader, trace)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var out SubmitResponse
	if resp.StatusCode < 400 {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return out, resp
}

func TestTraceMintAndPropagate(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueCap: 8}, true)

	// No header: the server mints an ID and returns it both ways.
	out, resp := postJob(t, ts, jobs.Spec{Molecule: "h2", Mode: jobs.ModeSerial})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	hdr := resp.Header.Get(telemetry.TraceHeader)
	if hdr == "" || out.TraceID != hdr {
		t.Fatalf("minted trace: header %q, body %q — want both set and equal", hdr, out.TraceID)
	}
	if telemetry.SanitizeTraceID(hdr) == "" {
		t.Errorf("minted trace %q fails its own sanitizer", hdr)
	}
	awaitTerminal(t, ts, out.ID)
	if got := s.Telemetry().Counter("svc.trace.minted").Value(); got < 1 {
		t.Errorf("svc.trace.minted = %d, want >= 1", got)
	}

	// Client-supplied header: propagated verbatim, status carries it.
	out2, resp2 := postJobTraced(t, ts.URL,
		jobs.Spec{Molecule: "h2", Mode: jobs.ModeSerial, MaxIter: 55}, "deadbeef12345678")
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("traced submit: HTTP %d", resp2.StatusCode)
	}
	if out2.TraceID != "deadbeef12345678" {
		t.Fatalf("supplied trace not propagated: %q", out2.TraceID)
	}
	if got := s.Telemetry().Counter("svc.trace.propagated").Value(); got < 1 {
		t.Errorf("svc.trace.propagated = %d, want >= 1", got)
	}
	st := awaitTerminal(t, ts, out2.ID)
	if st.TraceID != "deadbeef12345678" {
		t.Errorf("status trace %q, want the supplied ID", st.TraceID)
	}

	// Garbage header: rejected by the sanitizer, fresh ID minted instead.
	out3, resp3 := postJobTraced(t, ts.URL,
		jobs.Spec{Molecule: "h2", Mode: jobs.ModeSerial, MaxIter: 56}, "not hex at all!")
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("garbage-traced submit: HTTP %d", resp3.StatusCode)
	}
	if out3.TraceID == "not hex at all!" || out3.TraceID == "" {
		t.Errorf("garbage trace not replaced: %q", out3.TraceID)
	}
	awaitTerminal(t, ts, out3.ID)
}

func TestWaterfallEndpoint(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueCap: 8}, true)

	out, resp := postJob(t, ts, jobs.Spec{Molecule: "h2", Mode: jobs.ModeSerial})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	awaitTerminal(t, ts, out.ID)

	wresp, err := http.Get(ts.URL + "/v1/jobs/" + out.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	if wresp.StatusCode != http.StatusOK {
		t.Fatalf("waterfall: HTTP %d", wresp.StatusCode)
	}
	var wf WaterfallResponse
	if err := json.NewDecoder(wresp.Body).Decode(&wf); err != nil {
		t.Fatalf("decode waterfall: %v", err)
	}
	if wf.TraceID != out.TraceID {
		t.Fatalf("waterfall trace %q, want %q", wf.TraceID, out.TraceID)
	}
	for _, cat := range []string{"svc.job", "job.run", "scf.iter"} {
		if wf.Categories[cat] == 0 {
			t.Errorf("waterfall missing %s spans: %v", cat, wf.Categories)
		}
	}
	// Start-ordered spans.
	for i := 1; i < len(wf.Spans); i++ {
		if wf.Spans[i].StartUS < wf.Spans[i-1].StartUS {
			t.Fatalf("spans not start-ordered at %d", i)
		}
	}
	// The waterfall is every event recorded under the job's trace ID, which
	// is the event's own field, not one of its args.
	traced := 0
	for _, e := range s.Telemetry().Recorder.Events() {
		if e.Trace == wf.TraceID {
			traced++
		}
	}
	if len(wf.Spans) != traced {
		t.Errorf("waterfall has %d spans, the ring %d events under trace %s", len(wf.Spans), traced, wf.TraceID)
	}
	for _, sp := range wf.Spans {
		if _, ok := sp.Args["trace"]; ok {
			t.Errorf("span %s/%s args %v carry the trace ID", sp.Cat, sp.Name, sp.Args)
		}
	}

	if resp, err := http.Get(ts.URL + "/v1/jobs/nope/trace"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job waterfall: HTTP %d, want 404", resp.StatusCode)
		}
	}
}

func TestTraceSurvivesFleetForwarding(t *testing.T) {
	servers, members := startTestFleet(t, 2, Config{Workers: 1, QueueCap: 16,
		DefaultTimeout: time.Minute})

	spec := jobs.Spec{Molecule: "h2", Basis: "sto-3g", Mode: jobs.ModeSerial}
	hash, err := spec.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	ring, _ := servers[0].Fleet()
	owner := ring.Owner(hash)
	nonOwner := "r0"
	if owner == "r0" {
		nonOwner = "r1"
	}

	const trace = "feedc0de00000042"
	out, resp := postJobTraced(t, "http://"+members[nonOwner], spec, trace)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("forwarded submit: HTTP %d", resp.StatusCode)
	}
	if out.Replica != owner {
		t.Fatalf("accepted by %q, want owner %q", out.Replica, owner)
	}
	if out.TraceID != trace {
		t.Fatalf("trace %q did not survive the forward hop: got %q", trace, out.TraceID)
	}
	waitFleetDone(t, members, hash, 30*time.Second)

	// The owner ran the job; its waterfall carries the original trace ID
	// down to the SCF layer.
	wresp, err := http.Get(fmt.Sprintf("http://%s/v1/jobs/%s/trace", members[owner], out.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	if wresp.StatusCode != http.StatusOK {
		t.Fatalf("owner waterfall: HTTP %d", wresp.StatusCode)
	}
	var wf WaterfallResponse
	if err := json.NewDecoder(wresp.Body).Decode(&wf); err != nil {
		t.Fatal(err)
	}
	if wf.TraceID != trace {
		t.Fatalf("owner waterfall trace %q, want %q", wf.TraceID, trace)
	}
	for _, cat := range []string{"svc.job", "job.run", "scf.iter"} {
		if wf.Categories[cat] == 0 {
			t.Errorf("owner waterfall missing %s: %v", cat, wf.Categories)
		}
	}
}

func TestReadyzAndFlightEndpoints(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueCap: 8}, true)

	var rz readyzResponse
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rz.Status != "ready" || rz.Workers != 1 || rz.QueueCap != 8 {
		t.Errorf("readyz %+v, want ready with workers=1 cap=8", rz)
	}

	// Before any failure: no flight dump.
	if resp, err := http.Get(ts.URL + "/v1/debug/flight"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("flight before any dump: HTTP %d, want 404", resp.StatusCode)
		}
	}

	// A terminal failure dumps the flight ring (MaxIter 1 cannot converge
	// and the default retry budget is zero).
	out, presp := postJob(t, ts, jobs.Spec{Molecule: "h2", Mode: jobs.ModeSerial, MaxIter: 1})
	if presp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", presp.StatusCode)
	}
	if st := awaitTerminal(t, ts, out.ID); st.State != jobs.StateFailed {
		t.Fatalf("job ended %s, want failed", st.State)
	}
	fresp, err := http.Get(ts.URL + "/v1/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer fresp.Body.Close()
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("flight after failure: HTTP %d", fresp.StatusCode)
	}
	var dump telemetry.FlightDump
	if err := json.NewDecoder(fresp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if dump.Reason != "job-failed" || len(dump.Entries) == 0 {
		t.Errorf("dump reason %q with %d entries, want job-failed with context", dump.Reason, len(dump.Entries))
	}
	// The dump is the ring's tail: the failure's Logf line is in it, an
	// instant stamped with the job's trace.
	var logged bool
	for _, e := range dump.Entries {
		msg, _ := e.Args["msg"].(string)
		logged = logged || (e.Ph == telemetry.PhaseInstant && e.Trace == out.TraceID &&
			strings.Contains(msg, out.ID+" failed"))
	}
	if !logged {
		t.Errorf("dump has no log instant for the failed job %s", out.ID)
	}
	if got := s.Telemetry().Counter("obs.flight.dumps").Value(); got < 1 {
		t.Errorf("obs.flight.dumps = %d, want >= 1", got)
	}

	// build_info is pre-registered as a labeled gauge on every boot.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("hf_build_info{")) {
		t.Errorf("metrics missing hf_build_info gauge:\n%s", buf.String())
	}
}

// TestServerTraceRingIsBounded: the default session keeps one ring of
// serveTraceEvents events, however many events came before, and a job run after the ring wrapped still has its
// whole waterfall.
func TestServerTraceRingIsBounded(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueCap: 8}, true)
	tel := s.Telemetry()
	for i := 0; i < serveTraceEvents+100; i++ {
		tel.Instant("test", "filler", telemetry.DriverPid, 0, nil)
	}
	out, resp := postJob(t, ts, jobs.Spec{Molecule: "water", Basis: "sto-3g"}) // resilient 2x2
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if st := awaitTerminal(t, ts, out.ID); st.State != jobs.StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if got := len(tel.Recorder.Events()); got != serveTraceEvents {
		t.Errorf("ring holds %d events, want serveTraceEvents = %d", got, serveTraceEvents)
	}

	wresp, err := http.Get(ts.URL + "/v1/jobs/" + out.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	var wf WaterfallResponse
	if err := json.NewDecoder(wresp.Body).Decode(&wf); err != nil {
		t.Fatalf("decode waterfall: %v", err)
	}
	for _, cat := range []string{"svc.job", "job.run", "scf.iter", "fock.build", "mpi.op", "dlb.draw"} {
		if wf.Categories[cat] == 0 {
			t.Errorf("waterfall missing %s spans: %v", cat, wf.Categories)
		}
	}
}

// TestServedTiledJobTraceIsContinuous: a served purified job reaches the
// compute layers under its request trace like every other preset — one
// fock.build span per rank per Fock build (the cold first iteration
// builds nothing: D = 0 makes G = 0), each carrying the trace ID — so the
// server's trace passes ValidateContinuity.
func TestServedTiledJobTraceIsContinuous(t *testing.T) {
	for _, mode := range []string{"purified", "purified-abft"} {
		t.Run(mode, func(t *testing.T) {
			s, ts := testServer(t, Config{Workers: 1, QueueCap: 8}, true)
			out, resp := postJob(t, ts, jobs.Spec{Molecule: "water", Mode: mode})
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: HTTP %d", resp.StatusCode)
			}
			st := awaitTerminal(t, ts, out.ID)
			if st.State != jobs.StateDone {
				t.Fatalf("job ended %s: %s", st.State, st.Error)
			}
			var buf bytes.Buffer
			if err := s.Telemetry().WriteTrace(&buf); err != nil {
				t.Fatal(err)
			}
			cs, err := telemetry.ValidateContinuity(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if cs.Traces != 1 {
				t.Fatalf("%d request traces, want 1", cs.Traces)
			}
			builds := map[int]int{}
			for _, e := range s.Telemetry().Recorder.Events() {
				if e.Cat == "fock.build" {
					if e.Name != mode || e.Trace != out.TraceID {
						t.Fatalf("fock.build span %q trace %q, want variant %q under trace %s", e.Name, e.Trace, mode, out.TraceID)
					}
					builds[e.Pid]++
				}
			}
			want := st.Result.Iterations - 1
			if len(builds) != 2 || builds[0] != want || builds[1] != want {
				t.Fatalf("fock.build spans per rank %v, want %d on each of 2 ranks", builds, want)
			}
		})
	}
}

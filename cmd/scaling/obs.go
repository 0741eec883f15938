package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/internal/jobs"
	"repro/internal/telemetry"
)

// waterfallCategories are the span categories the stitched waterfall
// must contain for the chain to count as end-to-end.
var waterfallCategories = []string{
	"svc.job", "job.run", "scf.iter", "fock.build", "fock.task", "mpi.op", "dlb.draw",
}

// liveObs is the fleet-wide observability gate (EXP-OBS): a 3-replica
// fleet serves one traced request end to end, and the gates verify the
// nervous system —
//
//   - a submit to a NON-owning replica is forwarded to the owner with
//     its trace ID riding the X-HF-Trace header, and the owner's
//     stitched waterfall (GET /v1/jobs/{id}/trace) spans every layer:
//     service (svc.job) → runner (job.run) → SCF (scf.iter) → Fock
//     (fock.build, fock.task) → DDI/MPI (dlb.draw, mpi.op), all under
//     the single trace ID the client saw;
//   - a repeat submit to a third replica is served by a peer cache
//     fetch (cached result, svc.fleet.peer_hit), with its own trace;
//   - a deliberately unconvergeable job fails terminally and triggers a
//     flight-recorder dump, served at GET /v1/debug/flight;
//   - the replicas' recorders merge (pid offset per replica) into one
//     fleet-wide Chrome trace that passes both structural validation
//     (ValidateTrace) and trace-ID continuity (ValidateContinuity) —
//     the same checks cmd/tracecheck re-runs over the file -obs-trace
//     writes.
//
// Submissions are sequential — each job completes before the next
// starts — so span nesting on shared lanes stays strict and the merged
// trace is validatable.
func liveObs(e *env) {
	h, err := bootFleet(0)
	check(err)
	defer h.close()
	for _, name := range h.names {
		check(h.api[name].awaitReady(10 * time.Second))
	}
	fmt.Printf("  fleet of %d ready: %v\n", len(h.names), h.names)

	// --- Gate 1: forwarded submit, end-to-end waterfall ---------------
	spec := jobs.Spec{Molecule: "water", Basis: "sto-3g", Mode: jobs.ModeResilient, Ranks: 2, Threads: 2}
	hash, err := spec.CanonicalHash()
	check(err)
	owner := h.owner(hash)
	var ingress, third string
	for _, name := range h.names {
		switch {
		case name == owner:
		case ingress == "":
			ingress = name
		default:
			third = name
		}
	}
	sub, _, err := h.api[ingress].submit(spec)
	check(err)
	e.check("submit carries a trace ID", sub.TraceID != "", fmt.Sprintf("job %s trace %q", sub.ID, sub.TraceID))
	e.check("submit forwarded to the ring owner", sub.Replica == owner,
		fmt.Sprintf("%s -> %q (owner %s)", ingress, sub.Replica, owner))
	st, err := h.api[owner].awaitTerminal(sub.ID, time.Now().Add(time.Minute))
	check(err)
	e.check("forwarded job done", st.State == jobs.StateDone, fmt.Sprintf("state %s %s", st.State, st.Error))
	wf, err := h.api[owner].waterfall(sub.ID)
	check(err)
	e.check("waterfall under the submit's trace", wf.TraceID == sub.TraceID,
		fmt.Sprintf("%d spans, trace %q", len(wf.Spans), wf.TraceID))
	var missing []string
	for _, cat := range waterfallCategories {
		if wf.Categories[cat] == 0 {
			missing = append(missing, cat)
		}
	}
	e.check("waterfall spans every layer", len(missing) == 0, fmt.Sprintf("missing %v", missing))
	fmt.Printf("  waterfall: %v\n", wf.Categories)

	// --- Gate 2: peer cache fetch on a third replica ------------------
	peerHits := h.servers[third].Telemetry().Counter("svc.fleet.peer_hit")
	before := peerHits.Value()
	sub2, _, err := h.api[third].submit(spec)
	check(err)
	e.check("third replica serves from peer cache", sub2.Cached && peerHits.Value() > before,
		fmt.Sprintf("%s: cached=%v, peer_hit %d -> %d", third, sub2.Cached, before, peerHits.Value()))
	e.check("peer-fetched submit carries a trace ID", sub2.TraceID != "", fmt.Sprintf("job %s trace %q", sub2.ID, sub2.TraceID))

	// --- Gate 3: failure flight dump ----------------------------------
	failSpec := jobs.Spec{Molecule: "water", Basis: "sto-3g", Mode: jobs.ModeSerial, MaxIter: 1}
	failHash, err := failSpec.CanonicalHash()
	check(err)
	failOwner := h.owner(failHash)
	sub3, _, err := h.api[failOwner].submit(failSpec)
	check(err)
	st, err = h.api[failOwner].awaitTerminal(sub3.ID, time.Now().Add(time.Minute))
	check(err)
	e.check("unconvergeable job fails", st.State == jobs.StateFailed, fmt.Sprintf("job %s state %s", sub3.ID, st.State))
	dump, err := h.api[failOwner].flight()
	if err == nil && len(dump.Entries) > 0 {
		// A dump is the tail of the trace ring: its entries load as a trace.
		var buf bytes.Buffer
		check(telemetry.WriteTraceEvents(&buf, dump.Entries))
		_, err = telemetry.ValidateTrace(buf.Bytes())
	}
	e.check("failure produced a flight dump", err == nil && len(dump.Entries) > 0,
		fmt.Sprintf("%d entries, reason %q: %s", len(dump.Entries), dump.Reason, errDetail(err)))

	// --- Gate 4: merged fleet trace validates, continuity holds -------
	// Pids are offset by 100 per replica so lanes never collide.
	var events []telemetry.Event
	for i, name := range h.names {
		for _, ev := range h.servers[name].Telemetry().Recorder.Events() {
			ev.Pid += 100 * i
			events = append(events, ev)
		}
	}
	var buf bytes.Buffer
	check(telemetry.WriteTraceEvents(&buf, events))
	_, err = telemetry.ValidateTrace(buf.Bytes())
	e.check("merged fleet trace is well formed", err == nil, fmt.Sprintf("%d events: %s", len(events), errDetail(err)))
	cont, err := telemetry.ValidateContinuity(buf.Bytes())
	if e.check("trace-ID continuity holds", err == nil, errDetail(err)) {
		fmt.Printf("  merged trace: %d request traces, %d traced spans\n", cont.Traces, cont.Spans)
	}
	if e.obsTrace != "" {
		check(os.WriteFile(e.obsTrace, buf.Bytes(), 0o644))
		fmt.Printf("  fleet trace written to %s\n", e.obsTrace)
	}
}

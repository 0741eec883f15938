// Package telemetry is the unified observability layer of the HF
// runtime: a concurrency-safe metrics registry (counters, gauges,
// log-scale histograms), a per-rank/per-thread event recorder emitting
// Chrome trace-event JSON (loadable in chrome://tracing and Perfetto),
// and a load-imbalance collector reducing per-rank Fock-build shares to
// max/mean factors.
//
// Span taxonomy (the `cat` field of trace events):
//
//	scf.iter          one SCF iteration (args: energy, dE, rmsD)
//	fock.build        one collective Fock build, named by variant
//	fock.task         one DLB task's work on one rank/thread
//	mpi.op            a blocking MPI operation (recv, barrier, bcast, ...)
//	dlb.draw          one dynamic-load-balancer index draw
//	recovery.reissue  a task lease re-issued: stolen, expired or hedged
//	recovery.restore  a checkpoint restore (or corrupt-checkpoint reject)
//	recovery.restart  a shrink-and-restart transition
//	integrity         instant: a data-integrity event (fock-quarantine,
//	                  density-invalid, watchdog-<rung>)
//
// Counter taxonomy of the data-integrity layer (audited against each
// other by tests and the `scaling -exp sdc` gate — every injected
// corruption must show up as detected):
//
//	sdc.injected[.<site>]    corruptions landed by fault injection, by
//	                         site (send, fock, checkpoint)
//	sdc.detected[.<layer>]   corruptions caught, by detection layer
//	                         (transport, fock, density, checkpoint)
//	sdc.retries              transport retransmits requested
//	sdc.recovered            corrupted messages repaired by retransmit
//	sdc.escalated            persistent corruption escalated to RankFailure
//	integrity.fock.recomputed     quarantined Fock builds rebuilt clean
//	integrity.watchdog.escalations  convergence-watchdog ladder steps
//
// Serving-layer taxonomy (internal/service; spans on the DriverPid lane
// with tid = worker index, category "svc.job"):
//
//	svc.jobs.accepted/rejected/completed/failed/canceled  admission and
//	                         terminal-state counts of the job queue
//	svc.jobs.retried         bounded-retry requeues
//	svc.jobs.coalesced       submissions deduped onto an in-flight job
//	svc.cache.hit/miss       result-cache outcomes (canonical-hash keyed)
//	svc.queue.depth          gauge (current) + histogram (percentiles)
//	svc.queue.wait_ns        queued-to-claimed latency
//	svc.job.run_ns           per-attempt run wall time
//	svc.request.post_ns      POST /v1/jobs handler latency
//	scf.canceled             SCF loops stopped by context cancellation
//
// Durability and fleet taxonomy (write-ahead job log + multi-replica
// routing in internal/service; audited by the `scaling -exp fleet`
// kill-a-replica gate):
//
//	svc.cache.evict          LRU result-cache evictions (hit/miss above)
//	svc.jobs.quota_rejected  submissions bounced by a per-tenant quota
//	svc.jobs.reenqueued      queued/running-at-crash jobs re-enqueued
//	                         from the WAL at boot
//	svc.wal.appends          records fsync'd to the write-ahead job log
//	svc.wal.replayed         records recovered at boot replay
//	svc.wal.discarded        bytes dropped at the first torn/corrupt
//	                         record (consistent-prefix recovery)
//	svc.wal.compactions      segment compaction passes on drain
//	svc.fleet.forwarded      submissions proxied to the owning replica
//	svc.fleet.peer_hit       cache misses satisfied from a peer's cache
//	svc.fleet.handoff        jobs served locally because the owner was
//	                         unreachable
//
// Performance-fault taxonomy (chaos injection in internal/mpi and the
// straggler mitigation in internal/ddi; audited by the `scaling -exp
// chaos` gate):
//
//	chaos.dups               duplicate deliveries injected at the mailbox
//	chaos.dups_dropped       stale duplicates dropped by seq-number dedup
//	chaos.reorders           deliveries pushed behind later traffic
//	chaos.partition_held     messages held back by a transient partition
//	chaos.slowdown.events    sustained-straggler stalls applied
//	chaos.slowdown_ns        total injected stall time
//	dlb.hedged               speculative (hedged) lease re-issues
//	dlb.reissued             total re-issues (expiry + steal + hedge)
//	dlb.dedup_dropped        duplicate task results discarded by
//	                         first-writer-wins commit
//	ddi.lease.steals         leases reclaimed from dead ranks
//	ddi.lease.expired        leases reclaimed past their TTL deadline
//	ddi.lease.draws          lease-cursor draws
//	straggler.flagged        gauge: ranks currently over the EWMA k-bar
//
// Request-tracing and observability taxonomy (internal/service; see
// tracectx.go, flight.go, prom.go):
//
//	job.run                  span: one runner attempt (jobs layer), named
//	                         by mode, nested inside its svc.job span
//	svc.lookup               span: last-chance cache/peer dedup lookups
//	                         before a worker pays for a run
//	svc.submit               instant: one POST /v1/jobs admission outcome
//	svc.trace.minted         trace IDs minted at HTTP ingress
//	svc.trace.propagated     trace IDs accepted from X-HF-Trace (fleet
//	                         forwarding or client-supplied)
//	svc.trace.waterfalls     GET /v1/jobs/{id}/trace requests served
//	obs.flight.records       structured log lines recorded in the ring
//	obs.flight.dumps         flight-recorder dumps (job failure, watchdog
//	                         escalation, WAL crash replay)
//	svc.http.requests{route=,code=}  HTTP responses by route and status
//
// Spans recorded through a Session derived with WithTrace carry the
// originating request's trace ID in their args (key "trace"), so one
// request stitches into a single waterfall across service → jobs → scf →
// fock → ddi/mpi, validated by ValidateContinuity / tracecheck -continuity.
//
// Lanes: pid = MPI rank (DriverPid for events outside any rank), tid = 0
// for the rank's main goroutine, 1..T for OpenMP team threads.
//
// Everything is nil-safe: a nil *Session (telemetry disabled) makes every
// instrumentation call a cheap no-op, so the runtime carries the hooks
// unconditionally.
package telemetry

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// DriverPid labels events emitted outside any MPI rank (e.g. the SCF
// recovery driver between attempts).
const DriverPid = -1

// Session bundles the collectors for one run. A Session may carry a
// trace ID (see WithTrace): every span and instant it records then
// stamps the ID into its args, so request-scoped waterfalls can be
// stitched out of the shared Recorder after the fact.
type Session struct {
	Registry *Registry
	Recorder *Recorder
	Loads    *LoadCollector
	Flight   *FlightRecorder

	// TraceID, when non-empty, is stamped into the args of every event
	// this session records (key TraceArgKey). Derived sessions from
	// WithTrace share every collector with their parent.
	TraceID string
}

// NewSession returns a session recording wall-clock events.
func NewSession() *Session {
	return &Session{Registry: NewRegistry(), Recorder: NewRecorder(),
		Loads: NewLoadCollector(), Flight: NewFlightRecorder()}
}

// WithTrace returns a session that records into the same collectors but
// stamps traceID into every span and instant. An empty traceID (or a nil
// receiver) returns the receiver unchanged, so untraced call paths pay
// nothing.
func (s *Session) WithTrace(traceID string) *Session {
	if s == nil || traceID == "" || traceID == s.TraceID {
		return s
	}
	d := *s
	d.TraceID = traceID
	return &d
}

// traceArgs stamps the session's trace ID into args (allocating the map
// when needed). Untraced sessions pass args through untouched.
func (s *Session) traceArgs(args map[string]any) map[string]any {
	if s.TraceID == "" {
		return args
	}
	if args == nil {
		return map[string]any{TraceArgKey: s.TraceID}
	}
	args[TraceArgKey] = s.TraceID
	return args
}

// noop is the shared end function returned by spans on a nil session.
var noop = func() {}

// noopArgs is the shared args-accepting end function for a nil session.
var noopArgs = func(map[string]any) {}

// Span starts a span on lane (pid, tid) and returns its end function.
// args (may be nil) are attached to the recorded event.
func (s *Session) Span(cat, name string, pid, tid int, args map[string]any) func() {
	if s == nil || s.Recorder == nil {
		return noop
	}
	start := s.Recorder.Now()
	return func() {
		end := s.Recorder.Now()
		args = s.traceArgs(args)
		s.Recorder.Complete(cat, name, pid, tid, start, end, args)
		s.Flight.Note(FlightEntry{At: end, Kind: FlightSpan, Cat: cat, Name: name,
			Pid: pid, Tid: tid, DurUS: float64(end.Sub(start).Nanoseconds()) / 1e3,
			Trace: s.TraceID, Args: args})
	}
}

// SpanArgsAtEnd is Span for call sites whose args are only known when
// the span closes (e.g. the energy of an SCF iteration).
func (s *Session) SpanArgsAtEnd(cat, name string, pid, tid int) func(args map[string]any) {
	if s == nil || s.Recorder == nil {
		return noopArgs
	}
	start := s.Recorder.Now()
	return func(args map[string]any) {
		end := s.Recorder.Now()
		args = s.traceArgs(args)
		s.Recorder.Complete(cat, name, pid, tid, start, end, args)
		s.Flight.Note(FlightEntry{At: end, Kind: FlightSpan, Cat: cat, Name: name,
			Pid: pid, Tid: tid, DurUS: float64(end.Sub(start).Nanoseconds()) / 1e3,
			Trace: s.TraceID, Args: args})
	}
}

// TimedOp starts a span that also feeds the histogram "<cat>.<name>_ns"
// with the operation's duration — the shape used for per-op wait-time
// metrics (recv wait, barrier wait, DLB draw latency).
func (s *Session) TimedOp(cat, name string, pid, tid int) func() {
	if s == nil || s.Recorder == nil {
		return noop
	}
	return s.TimedOpInto(s.Histogram(TimedOpHistogram(cat, name)), cat, name, pid, tid)
}

// TimedOpHistogram names the histogram TimedOp(cat, name) feeds.
func TimedOpHistogram(cat, name string) string { return cat + "." + name + "_ns" }

// TimedOpInto is TimedOp for hot call sites that resolved their histogram
// (s.Histogram(TimedOpHistogram(cat, name))) once, at construction.
func (s *Session) TimedOpInto(hist *Histogram, cat, name string, pid, tid int) func() {
	if s == nil || s.Recorder == nil {
		return noop
	}
	start := s.Recorder.Now()
	return func() {
		end := s.Recorder.Now()
		s.Recorder.Complete(cat, name, pid, tid, start, end, s.traceArgs(nil))
		hist.Observe(end.Sub(start).Nanoseconds())
		s.Flight.Note(FlightEntry{At: end, Kind: FlightSpan, Cat: cat, Name: name,
			Pid: pid, Tid: tid, DurUS: float64(end.Sub(start).Nanoseconds()) / 1e3,
			Trace: s.TraceID})
	}
}

// Instant records a point event.
func (s *Session) Instant(cat, name string, pid, tid int, args map[string]any) {
	if s == nil {
		return
	}
	args = s.traceArgs(args)
	s.Recorder.Instant(cat, name, pid, tid, args)
	s.Flight.Note(FlightEntry{Kind: FlightInstant, Cat: cat, Name: name,
		Pid: pid, Tid: tid, Trace: s.TraceID, Args: args})
}

// Logf records a structured log line into the flight ring (and counts it
// on the obs.flight.records counter). Log lines are postmortem context —
// they never reach the Chrome trace, only flight dumps.
func (s *Session) Logf(cat, format string, a ...any) {
	if s == nil || s.Flight == nil {
		return
	}
	s.Flight.Note(FlightEntry{Kind: FlightLog, Cat: cat,
		Trace: s.TraceID, Msg: fmt.Sprintf(format, a...)})
	s.Counter("obs.flight.records").Add(1)
}

// DumpFlight snapshots the flight ring with the given reason, firing any
// registered persistence callback. Nil-safe; returns the dump (nil when
// the session has no flight recorder).
func (s *Session) DumpFlight(reason string) *FlightDump {
	if s == nil || s.Flight == nil {
		return nil
	}
	s.Counter("obs.flight.dumps").Add(1)
	return s.Flight.Dump(reason)
}

// Counter returns the named counter (nil, a no-op handle, when the
// session is nil).
func (s *Session) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	return s.Registry.Counter(name)
}

// Gauge returns the named gauge.
func (s *Session) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	return s.Registry.Gauge(name)
}

// Histogram returns the named histogram.
func (s *Session) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	return s.Registry.Histogram(name)
}

// RecordLoad reports one rank's share of a Fock build for the imbalance
// report.
func (s *Session) RecordLoad(variant string, rank int, l RankLoad) {
	if s == nil {
		return
	}
	s.Loads.Record(variant, rank, l)
}

// WriteTrace writes the Chrome trace JSON.
func (s *Session) WriteTrace(w io.Writer) error {
	if s == nil {
		return nil
	}
	return s.Recorder.WriteJSON(w)
}

// WriteMetrics writes the metrics snapshot JSON.
func (s *Session) WriteMetrics(w io.Writer) error {
	if s == nil {
		return nil
	}
	return s.Registry.WriteJSON(w)
}

// Summary renders the human-readable end-of-run report: the per-variant
// load-imbalance table plus headline counters and wait-time histograms.
func (s *Session) Summary() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString("== telemetry summary ==\n")
	b.WriteString(FormatImbalance(s.Loads.Imbalance()))
	if names := s.Registry.CounterNames(); len(names) > 0 {
		b.WriteString("counters:\n")
		for _, n := range names {
			writePadded(&b, "  "+n, s.Registry.Counter(n).Value())
		}
	}
	if names := s.Registry.HistogramNames(); len(names) > 0 {
		b.WriteString("histograms (count / mean / max):\n")
		for _, n := range names {
			h := s.Registry.Histogram(n)
			if h.Count() == 0 {
				continue
			}
			if strings.HasSuffix(n, "_ns") {
				writeHistLine(&b, n, h.Count(),
					time.Duration(int64(h.Mean())).String(), time.Duration(h.Max()).String())
			} else {
				writeHistLine(&b, n, h.Count(),
					formatInt(int64(h.Mean())), formatInt(h.Max()))
			}
		}
	}
	if d := s.Recorder.Dropped(); d > 0 {
		writePadded(&b, "trace events dropped at cap", d)
	}
	return b.String()
}

func writePadded(b *strings.Builder, label string, v int64) {
	b.WriteString(padTo(label, 36))
	b.WriteString(formatInt(v))
	b.WriteByte('\n')
}

func writeHistLine(b *strings.Builder, name string, count int64, mean, max string) {
	b.WriteString(padTo("  "+name, 36))
	b.WriteString(padTo(formatInt(count), 12))
	b.WriteString(padTo(mean, 12))
	b.WriteString(max)
	b.WriteByte('\n')
}

func padTo(s string, n int) string {
	if len(s) >= n {
		return s + " "
	}
	return s + strings.Repeat(" ", n-len(s))
}

func formatInt(v int64) string {
	// Group thousands for readability: 1234567 -> "1,234,567".
	neg := v < 0
	if neg {
		v = -v
	}
	digits := []byte{}
	for i := 0; ; i++ {
		if i > 0 && i%3 == 0 {
			digits = append(digits, ',')
		}
		digits = append(digits, byte('0'+v%10))
		v /= 10
		if v == 0 {
			break
		}
	}
	if neg {
		digits = append(digits, '-')
	}
	for i, j := 0, len(digits)-1; i < j; i, j = i+1, j-1 {
		digits[i], digits[j] = digits[j], digits[i]
	}
	return string(digits)
}

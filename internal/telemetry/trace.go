package telemetry

// Chrome trace-event recording: completed spans and instant markers,
// tagged with a pid/tid lane (here: MPI rank / OpenMP thread), emitted
// as the JSON object format that chrome://tracing and Perfetto load
// directly. Timestamps are microseconds relative to the recorder start.
//
// The recorder is a bounded ring: past its capacity each new event
// overwrites (and counts as dropped) the oldest one, so a long run or a
// long-lived server keeps its most recent history in fixed memory. The
// same ring is the flight recorder: a dump (flight.go) is its tail.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// Event phase constants (the trace-event "ph" field).
const (
	PhaseComplete = "X" // a span with ts + dur
	PhaseInstant  = "i" // a point event
)

// Event is one Chrome trace event.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds since trace start
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope ("t" = thread)
	Args map[string]any `json:"args,omitempty"`
}

// End returns the event's end timestamp (ts for instants).
func (e Event) End() float64 { return e.Ts + e.Dur }

// DefaultMaxEvents is a recorder's ring capacity unless told otherwise:
// enough for a one-shot run's whole trace (a 24-carbon flake on 2x2
// emits about 280,000 events).
const DefaultMaxEvents = 1 << 20

// Recorder is the ring of trace events, safe for concurrent use.
type Recorder struct {
	now   func() time.Time
	start time.Time

	mu      sync.Mutex
	events  []Event // grows to max, then wraps
	next    int     // once full: the oldest event, overwritten next
	max     int
	dropped int64 // events overwritten
	onDump  func(*FlightDump)
	last    *FlightDump
}

// NewRecorder returns a wall-clock recorder with the default event cap.
func NewRecorder() *Recorder {
	return NewRecorderWithClock(time.Now, DefaultMaxEvents)
}

// NewRecorderWithClock returns a recorder reading time from now (called
// once immediately to fix the trace origin) with the given event cap;
// tests use a fake clock for deterministic output.
func NewRecorderWithClock(now func() time.Time, maxEvents int) *Recorder {
	if maxEvents <= 0 {
		maxEvents = DefaultMaxEvents
	}
	return &Recorder{now: now, start: now(), max: maxEvents}
}

// Now returns the recorder's current clock reading.
func (r *Recorder) Now() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.now()
}

func (r *Recorder) ts(t time.Time) float64 {
	return float64(t.Sub(r.start).Nanoseconds()) / 1e3
}

// sanitizeArgs replaces non-finite float args (Inf, NaN — e.g. the dE of
// the first SCF iteration) with their string form, since JSON cannot
// encode them and one bad value must not abort the whole trace export.
func sanitizeArgs(args map[string]any) map[string]any {
	for k, v := range args {
		if f, ok := v.(float64); ok && (math.IsInf(f, 0) || math.IsNaN(f)) {
			args[k] = fmt.Sprintf("%v", f)
		}
	}
	return args
}

func (r *Recorder) append(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.events) < r.max {
		r.events = append(r.events, e)
		return
	}
	r.events[r.next] = e
	r.next = (r.next + 1) % r.max
	r.dropped++
}

// Complete records a finished span [start, end) on lane (pid, tid).
func (r *Recorder) Complete(cat, name string, pid, tid int, start, end time.Time, args map[string]any) {
	if r == nil {
		return
	}
	r.append(Event{
		Name: name, Cat: cat, Ph: PhaseComplete,
		Ts: r.ts(start), Dur: float64(end.Sub(start).Nanoseconds()) / 1e3,
		Pid: pid, Tid: tid, Args: sanitizeArgs(args),
	})
}

// Instant records a point event on lane (pid, tid).
func (r *Recorder) Instant(cat, name string, pid, tid int, args map[string]any) {
	if r == nil {
		return
	}
	r.append(Event{
		Name: name, Cat: cat, Ph: PhaseInstant, S: "t",
		Ts: r.ts(r.now()), Pid: pid, Tid: tid, Args: sanitizeArgs(args),
	})
}

// Events returns a copy of the ring in chronological order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tailLocked(len(r.events))
}

// tailLocked copies the newest n buffered events, oldest first.
func (r *Recorder) tailLocked(n int) []Event {
	out := make([]Event, 0, n)
	for i := len(r.events) - n; i < len(r.events); i++ {
		out = append(out, r.events[(r.next+i)%len(r.events)])
	}
	return out
}

// Dropped returns how many events the ring overwrote.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// traceFile is the on-disk Chrome trace object format.
type traceFile struct {
	TraceEvents     []Event        `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WriteJSON writes the ring as a Chrome trace JSON object
// ({"traceEvents": [...]}), loadable in chrome://tracing and Perfetto,
// with the overwritten-event count in otherData.droppedEvents.
func (r *Recorder) WriteJSON(w io.Writer) error {
	var other map[string]any
	if d := r.Dropped(); d > 0 {
		other = map[string]any{"droppedEvents": d}
	}
	return writeTrace(w, r.Events(), other)
}

// WriteTraceEvents writes an arbitrary event slice as a Chrome trace
// JSON object — used to merge several replicas' recorders (with their
// pids offset per replica) into one fleet-wide trace file, or to load a
// flight dump's entries.
func WriteTraceEvents(w io.Writer, events []Event) error {
	return writeTrace(w, events, nil)
}

func writeTrace(w io.Writer, events []Event, other map[string]any) error {
	if events == nil {
		events = []Event{}
	}
	return writeIndented(w, traceFile{TraceEvents: events, DisplayTimeUnit: "ms", OtherData: other})
}

// writeIndented writes v as indented JSON plus a newline.
func writeIndented(w io.Writer, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// --- validation (shared by tests and cmd/tracecheck) ---

// TraceStats summarizes a validated trace.
type TraceStats struct {
	Events     int
	Spans      int
	Instants   int
	Categories map[string]int // events per category
	Lanes      int            // distinct (pid, tid) pairs
	MaxDepth   int            // deepest span nesting observed
}

// ValidateTrace parses Chrome trace JSON (the object format WriteJSON
// emits) and verifies structural well-formedness: every event carries a
// phase and name, complete events have non-negative durations, and on
// each (pid, tid) lane spans nest strictly — any two spans are either
// disjoint or one contains the other. Returns per-category statistics.
func ValidateTrace(data []byte) (*TraceStats, error) {
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return nil, fmt.Errorf("telemetry: trace is not valid JSON: %w", err)
	}
	if len(tf.TraceEvents) == 0 {
		return nil, fmt.Errorf("telemetry: trace contains no events")
	}
	stats := &TraceStats{Events: len(tf.TraceEvents), Categories: map[string]int{}}
	type lane struct{ pid, tid int }
	spans := map[lane][]Event{}
	for i, e := range tf.TraceEvents {
		if e.Ph == "" {
			return nil, fmt.Errorf("telemetry: event %d (%q) has no phase", i, e.Name)
		}
		if e.Name == "" {
			return nil, fmt.Errorf("telemetry: event %d has no name", i)
		}
		stats.Categories[e.Cat]++
		switch e.Ph {
		case PhaseComplete:
			if e.Dur < 0 {
				return nil, fmt.Errorf("telemetry: span %q has negative duration %v", e.Name, e.Dur)
			}
			stats.Spans++
			spans[lane{e.Pid, e.Tid}] = append(spans[lane{e.Pid, e.Tid}], e)
		case PhaseInstant:
			stats.Instants++
		}
	}
	stats.Lanes = len(spans)
	// Per-lane nesting check: sort by (ts asc, dur desc) so a parent
	// precedes its children, then run a containment stack.
	const eps = 1e-3 // microseconds of float tolerance
	for ln, evs := range spans {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].Ts != evs[j].Ts {
				return evs[i].Ts < evs[j].Ts
			}
			return evs[i].Dur > evs[j].Dur
		})
		var stack []Event
		for _, e := range evs {
			for len(stack) > 0 && stack[len(stack)-1].End() <= e.Ts+eps {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				if e.End() > top.End()+eps {
					return nil, fmt.Errorf(
						"telemetry: span %q [%.3f, %.3f) on pid=%d tid=%d overlaps %q [%.3f, %.3f) without nesting",
						e.Name, e.Ts, e.End(), ln.pid, ln.tid, top.Name, top.Ts, top.End())
				}
			}
			stack = append(stack, e)
			if len(stack) > stats.MaxDepth {
				stats.MaxDepth = len(stack)
			}
		}
	}
	return stats, nil
}

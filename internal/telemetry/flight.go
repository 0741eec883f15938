package telemetry

// Flight recorder: a bounded ring of the most recent spans, instants,
// and structured log lines, snapshotted ("dumped") when something goes
// wrong — a job failure, a convergence-watchdog escalation, a WAL
// crash replay — so a postmortem has the last moments of context even
// when no one was exporting a live trace file. The ring keeps recording
// past its capacity by overwriting the oldest entries; a dump is a
// consistent copy in chronological order.

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Flight entry kinds.
const (
	FlightSpan    = "span"
	FlightInstant = "instant"
	FlightLog     = "log"
)

// FlightEntry is one recorded moment.
type FlightEntry struct {
	At    time.Time      `json:"at"`
	Kind  string         `json:"kind"` // span | instant | log
	Cat   string         `json:"cat,omitempty"`
	Name  string         `json:"name,omitempty"`
	Pid   int            `json:"pid,omitempty"`
	Tid   int            `json:"tid,omitempty"`
	DurUS float64        `json:"dur_us,omitempty"` // spans only
	Trace string         `json:"trace,omitempty"`
	Msg   string         `json:"msg,omitempty"` // log lines only
	Args  map[string]any `json:"args,omitempty"`
}

// FlightDump is one snapshot of the ring.
type FlightDump struct {
	Reason    string        `json:"reason"`
	DumpedAt  time.Time     `json:"dumped_at"`
	Recorded  int64         `json:"recorded_total"` // entries ever recorded
	Entries   []FlightEntry `json:"entries"`        // chronological
	Truncated bool          `json:"truncated"`      // ring overwrote older entries
}

// flightEntries is the ring capacity — enough for the last few jobs'
// worth of spans without holding a long run's history.
const flightEntries = 512

// FlightRecorder is the bounded ring. All methods are nil-safe and
// concurrency-safe.
type FlightRecorder struct {
	mu     sync.Mutex
	buf    []FlightEntry
	next   int
	filled bool
	total  int64
	onDump func(*FlightDump)
	last   *FlightDump
}

// NewFlightRecorder returns a ring holding the last flightEntries
// entries.
func NewFlightRecorder() *FlightRecorder {
	return &FlightRecorder{buf: make([]FlightEntry, flightEntries)}
}

// Note records one entry, overwriting the oldest past capacity.
func (f *FlightRecorder) Note(e FlightEntry) {
	if f == nil {
		return
	}
	if e.At.IsZero() {
		e.At = time.Now()
	}
	f.mu.Lock()
	f.buf[f.next] = e
	f.next++
	if f.next == len(f.buf) {
		f.next = 0
		f.filled = true
	}
	f.total++
	f.mu.Unlock()
}

// SetOnDump registers a callback invoked (outside the ring lock) with
// every dump — the service uses it to persist dumps to disk.
func (f *FlightRecorder) SetOnDump(fn func(*FlightDump)) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.onDump = fn
	f.mu.Unlock()
}

// Dump snapshots the ring in chronological order, remembers it as the
// last dump, and fires the OnDump callback.
func (f *FlightRecorder) Dump(reason string) *FlightDump {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	d := &FlightDump{Reason: reason, DumpedAt: time.Now(), Recorded: f.total, Truncated: f.filled}
	if f.filled {
		d.Entries = append(d.Entries, f.buf[f.next:]...)
		d.Entries = append(d.Entries, f.buf[:f.next]...)
	} else {
		d.Entries = append(d.Entries, f.buf[:f.next]...)
	}
	f.last = d
	cb := f.onDump
	f.mu.Unlock()
	if cb != nil {
		cb(d)
	}
	return d
}

// LastDump returns the most recent dump (nil if none yet).
func (f *FlightRecorder) LastDump() *FlightDump {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last
}

// Recorded returns how many entries were ever recorded.
func (f *FlightRecorder) Recorded() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// WriteJSON writes d as indented JSON.
func (d *FlightDump) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

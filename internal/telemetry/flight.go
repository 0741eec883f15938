package telemetry

// Flight dumps: when something goes wrong — a job failure, a
// convergence-watchdog escalation, a WAL crash replay — the tail of the
// trace ring (the last flightEntries spans, instants and Logf lines) is
// snapshotted, so a postmortem has the last moments of context even when
// no one was exporting a live trace file. A dump's entries are trace
// events: WriteTraceEvents turns one into a file Perfetto loads.

import (
	"io"
	"time"
)

// FlightDump is one snapshot of the ring's tail.
type FlightDump struct {
	Reason    string    `json:"reason"`
	DumpedAt  time.Time `json:"dumped_at"`
	Recorded  int64     `json:"recorded_total"` // events ever recorded
	Entries   []Event   `json:"entries"`        // chronological
	Truncated bool      `json:"truncated"`      // older events exist beyond the dump
}

// flightEntries is how many of the newest events a dump keeps — enough
// for the last few jobs' worth of spans.
const flightEntries = 512

// SetOnDump registers a callback invoked (outside the ring lock) with
// every dump — the service uses it to persist dumps to disk.
func (r *Recorder) SetOnDump(fn func(*FlightDump)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.onDump = fn
	r.mu.Unlock()
}

// Dump snapshots the last flightEntries events in chronological order,
// remembers the snapshot as the last dump, and fires the OnDump callback.
func (r *Recorder) Dump(reason string) *FlightDump {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	recorded := int64(len(r.events)) + r.dropped
	d := &FlightDump{Reason: reason, DumpedAt: time.Now(), Recorded: recorded,
		Entries: r.tailLocked(min(flightEntries, len(r.events)))}
	d.Truncated = int64(len(d.Entries)) < recorded
	r.last = d
	cb := r.onDump
	r.mu.Unlock()
	if cb != nil {
		cb(d)
	}
	return d
}

// LastDump returns the most recent dump (nil if none yet).
func (r *Recorder) LastDump() *FlightDump {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

// WriteJSON writes d as indented JSON.
func (d *FlightDump) WriteJSON(w io.Writer) error { return writeIndented(w, d) }

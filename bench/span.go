package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Spans are recorded by
// the benchmark's own files around calls into the layers; nothing inside
// the program is instrumented.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = no parent (the workload root)
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"` // since the tracer's epoch
	End      int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so the same composition runs traced and untraced.
type Tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	spans    []Span
}

func newTracer(workload string) *Tracer {
	return &Tracer{epoch: time.Now(), workload: workload}
}

// Start opens a span under parent and returns its id.
func (t *Tracer) Start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Workload: t.workload, Start: now, End: now})
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Add records a span of a known duration starting at the given instant;
// used for time accumulated by a decorator (many short calls folded into
// one child span).
func (t *Tracer) Add(name string, parent int, start time.Time, dur time.Duration) int {
	if t == nil {
		return 0
	}
	s := start.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Workload: t.workload, Start: s, End: s + dur.Nanoseconds()})
	return id
}

// Spans returns a copy of what was recorded.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// that interval its children cover. Children that run in parallel overlap;
// the covered part is the UNION of their intervals (clipped to the
// parent), not the sum, so a self time is never negative.
func selfTimes(spans []Span) map[int]int64 {
	children := map[int][][2]int64{}
	byID := map[int]Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				children[p.ID] = append(children[p.ID], [2]int64{lo, hi})
			}
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		open := false
		for _, x := range iv {
			if !open {
				curLo, curHi, open = x[0], x[1], true
				continue
			}
			if x[0] <= curHi {
				curHi = max(curHi, x[1])
				continue
			}
			covered += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
		if open {
			covered += curHi - curLo
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// selfByName sums self times per span name and returns the grand total.
// For a tree whose siblings never overlap the total equals the root
// span's duration: the self times plus the root's own (unattributed)
// remainder account for the whole traced wall.
func selfByName(spans []Span) (byName map[string]int64, total int64) {
	byName = map[string]int64{}
	for id, ns := range selfTimes(spans) {
		byName[spans[id-1].Name] += ns
		total += ns
	}
	return byName, total
}

// writeTrace writes the spans to <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, spans []Span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

package telemetry

// Concurrency-safe metrics: counters, gauges, and histograms with fixed
// log-scale (power-of-two) buckets, collected in a Registry keyed by
// name. All update paths are lock-free (atomics); only name resolution
// takes a lock, so instrumented hot loops should hold on to the returned
// handle instead of re-resolving per event.

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float metric (e.g. the current SCF energy).
type Gauge struct {
	bits atomic.Uint64
	set  atomic.Bool
}

// Set stores v as the gauge's current value. Safe on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
	g.set.Store(true)
}

// Value returns the gauge's current value (0 if never set or nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the fixed bucket count: bucket i holds observations
// v with upperBound(i-1) < v <= upperBound(i), upperBound(i) = 2^i.
// 63 buckets cover the full positive int64 range.
const histBuckets = 63

// Histogram accumulates int64 observations (typically nanoseconds or
// bytes) into fixed log2-scale buckets, tracking count/sum/min/max.
type Histogram struct {
	counts [histBuckets + 1]atomic.Int64 // +1: overflow bucket
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // valid only when count > 0
	max    atomic.Int64
}

// bucketIndex maps an observation to its bucket: 0 for v <= 1, else the
// position of the highest set bit of v-1 (so bucket i's upper bound is
// 2^i inclusive).
func bucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	i := bits.Len64(uint64(v - 1))
	if i > histBuckets {
		return histBuckets
	}
	return i
}

// BucketUpperBound returns the inclusive upper bound of bucket i.
func BucketUpperBound(i int) int64 {
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1) << uint(i)
}

// Observe records one value. Negative values clamp to 0. Safe on a nil
// receiver (no-op) and for any number of concurrent observers.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	if h.count.Add(1) == 1 {
		// First observer seeds min/max; racing observers fix them up below.
		h.min.Store(v)
		h.max.Store(v)
	}
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() int64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// Percentile returns an upper bound on the p-quantile (0 < p <= 1) of
// the observations: the inclusive upper bound of the first bucket whose
// cumulative count reaches p of the total. Resolution is the log2 bucket
// width — exact enough for tail-latency and queue-depth reporting, free
// of per-observation storage.
func (h *Histogram) Percentile(p float64) int64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	if p > 1 {
		p = 1
	}
	target := int64(math.Ceil(p * float64(n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= target {
			if upper := BucketUpperBound(i); upper < h.Max() {
				return upper
			}
			return h.Max()
		}
	}
	return h.Max()
}

// HistBucket is one non-empty bucket of a histogram snapshot.
type HistBucket struct {
	Le    int64 `json:"le"` // inclusive upper bound (2^i)
	Count int64 `json:"count"`
}

// HistSnapshot is a point-in-time view of a histogram.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Min     int64        `json:"min"`
	Max     int64        `json:"max"`
	Mean    float64      `json:"mean"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram's current state (non-empty buckets
// only, ascending by bound).
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(), Mean: h.Mean()}
	if h == nil {
		return s
	}
	for i := range h.counts {
		if n := h.counts[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, HistBucket{Le: BucketUpperBound(i), Count: n})
		}
	}
	return s
}

// Registry is a concurrency-safe, name-keyed collection of metrics.
// Metrics are created on first use; handles remain valid for the life of
// the registry.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterValue reads the named counter without creating it: an absent
// counter reads 0, and the registry is left as it was.
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	return c.Value()
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// MetricsSnapshot is a point-in-time JSON-serializable view of a
// registry. Map keys serialize in sorted order, so output is
// deterministic for a fixed set of values.
type MetricsSnapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for n, c := range r.counters {
			s.Counters[n] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for n, g := range r.gauges {
			// Non-finite values (e.g. the -Inf dE of a first SCF iteration)
			// are unrepresentable in JSON; skip them rather than fail the
			// whole snapshot.
			if v := g.Value(); g.set.Load() && !math.IsInf(v, 0) && !math.IsNaN(v) {
				s.Gauges[n] = v
			}
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistSnapshot, len(r.hists))
		for n, h := range r.hists {
			s.Histograms[n] = h.Snapshot()
		}
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON. Output key
// order is deterministic (encoding/json sorts map keys).
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// HistogramNames returns the registered histogram names, sorted.
func (r *Registry) HistogramNames() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CounterNames returns the registered counter names, sorted.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

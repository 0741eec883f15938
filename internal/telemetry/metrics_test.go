package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Add(3)
	c.Add(4)
	if got := r.Counter("x").Value(); got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
	g := r.Gauge("e")
	g.Set(-75.5)
	if got := r.Gauge("e").Value(); got != -75.5 {
		t.Fatalf("gauge = %v", got)
	}
}

func TestNilHandlesAreNoops(t *testing.T) {
	var r *Registry
	r.Counter("a").Add(1)
	r.Gauge("b").Set(2)
	r.Histogram("c").Observe(3)
	if r.Counter("a").Value() != 0 || r.Gauge("b").Value() != 0 || r.Histogram("c").Count() != 0 {
		t.Fatal("nil registry handles must read as zero")
	}
	var s *Session
	s.Start("cat", "n", 0, 0, nil).End(map[string]any{"k": 1})
	s.Start("cat", "n", 0, 0, s.Histogram("cat.n_ns")).End(nil)
	s.Instant("cat", "n", 0, 0, nil)
	if s.Summary() != "" {
		t.Fatal("nil session summary should be empty")
	}
	if err := s.WriteTrace(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{0, 1, 2, 3, 4, 1000, -5} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 0 || h.Max() != 1000 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	s := h.Snapshot()
	var total int64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != 7 {
		t.Fatalf("bucket counts sum to %d, want 7", total)
	}
	// v <= 1 lands in bucket 0 (le=1): observations 0, 1, and clamped -5.
	if s.Buckets[0].Le != 1 || s.Buckets[0].Count != 3 {
		t.Fatalf("bucket 0 = %+v", s.Buckets[0])
	}
	// 1000 lands in the le=1024 bucket.
	found := false
	for _, b := range s.Buckets {
		if b.Le == 1024 && b.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("1000 not in le=1024 bucket: %+v", s.Buckets)
	}
}

func TestBucketIndexBounds(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{math.MaxInt64, histBuckets},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
		if c.v > 0 && BucketUpperBound(bucketIndex(c.v)) < c.v {
			t.Errorf("upper bound of bucket for %d is below it", c.v)
		}
	}
}

// TestConcurrentUpdates hammers one histogram, counter, and gauge from
// many goroutines; run under -race it proves the lock-free update paths
// are sound, and the totals prove no update was lost.
func TestConcurrentUpdates(t *testing.T) {
	const goroutines = 12
	const per = 2000
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("shared.counter")
			h := r.Histogram("shared.hist")
			ga := r.Gauge("shared.gauge")
			for i := 0; i < per; i++ {
				c.Add(1)
				h.Observe(int64(g*per + i))
				ga.Set(float64(i))
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared.counter").Value(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
	h := r.Histogram("shared.hist")
	if h.Count() != goroutines*per {
		t.Fatalf("hist count = %d, want %d", h.Count(), goroutines*per)
	}
	if h.Min() != 0 || h.Max() != goroutines*per-1 {
		t.Fatalf("hist min/max = %d/%d", h.Min(), h.Max())
	}
	var sum int64
	for i := int64(0); i < goroutines*per; i++ {
		sum += i
	}
	if h.Sum() != sum {
		t.Fatalf("hist sum = %d, want %d", h.Sum(), sum)
	}
}

func TestSnapshotJSONDeterministicAndFinite(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("ok").Set(1.5)
	r.Gauge("bad").Set(math.Inf(-1))
	r.Gauge("nan").Set(math.NaN())
	r.Histogram("h").Observe(100)

	var b1, b2 bytes.Buffer
	if err := r.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("snapshot JSON not deterministic")
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(b1.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if _, ok := snap.Gauges["bad"]; ok {
		t.Fatal("non-finite gauge must be omitted from the snapshot")
	}
	if snap.Gauges["ok"] != 1.5 || snap.Counters["a"] != 1 || snap.Counters["b"] != 2 {
		t.Fatalf("snapshot contents wrong: %+v", snap)
	}
}

package ddi

// Straggler telemetry bridge: each rank publishes its task-latency EWMA
// into a shared counter window, and any rank can read the whole vector
// back to run the detector below. This is what connects the imbalance
// telemetry (PR 2) to the hedged DLB: a flagged rank's outstanding leases
// become candidates for speculative re-issue. For a communicator of size
// P the context's straggler window (created in New) holds slots [0, P) =
// per-rank latency EWMA in nanoseconds and slots [P, 2P) = per-rank
// sample counts. Every context starts from a fresh window, so a new
// world (an elastic epoch, a salvage resume) starts from a clean slate.

import (
	"sort"
	"time"
)

// ObserveTaskLatency folds one completed task's wall time into this
// rank's latency EWMA and publishes the updated (EWMA, count) pair to
// the shared straggler window. Call it once per task, timed around the
// real work (including any chaos stall — that is the point: a straggler
// is whatever LOOKS slow from outside).
func (d *Context) ObserveTaskLatency(dur time.Duration) {
	v := d.ewma.Observe(float64(dur.Nanoseconds()))
	r := d.Comm.Rank()
	d.straggler.Store(r, int64(v))
	d.straggler.Store(d.Comm.Size()+r, d.ewma.Count())
}

// Stragglers reads every rank's published latency EWMA and returns the
// ranks flagged slower than k× the median (with at least minSamples
// observations each; see FlagStragglers for the exact
// policy). The flagged count is exported as the straggler.flagged gauge.
func (d *Context) Stragglers(k float64, minSamples int64) []int {
	ewma, counts := d.PublishedLatencies()
	flagged := FlagStragglers(ewma, counts, k, minSamples)
	d.flagged.Set(float64(len(flagged)))
	return flagged
}

// PublishedLatencies reads the context's shared straggler window:
// per-rank latency EWMAs (ns) and sample counts. The
// elastic driver and the autoscaler read these directly when deciding
// migrations.
func (d *Context) PublishedLatencies() ([]float64, []int64) {
	size := d.Comm.Size()
	ewma := make([]float64, size)
	counts := make([]int64, size)
	for r := 0; r < size; r++ {
		ewma[r] = float64(d.straggler.Load(r))
		counts[r] = d.straggler.Load(size + r)
	}
	return ewma, counts
}

// Straggler detection: the policy half of the performance-fault story.
//
// The paper's DLB absorbs *fine-grained* imbalance by construction — a
// slow rank simply draws fewer ij tasks — but a sustained straggler
// still dominates the drain tail: whatever it holds when the cursor
// empties finishes at its (slow) pace while every fast rank idles. The
// detector below turns per-rank task-latency EWMAs (published through the
// counter window above) into a flag set that the hedged DLB uses to
// speculatively re-issue the straggler's outstanding leases.
//
// The mechanism is deliberately simple and robust: an exponentially
// weighted moving average per rank, flagged when it exceeds k× the
// median of all ranks with enough samples. The median (not the mean)
// keeps the straggler's own latency from dragging the baseline up, and
// the minimum-sample floor keeps one unlucky first task from flagging a
// healthy rank.

// DefaultEWMAAlpha is the smoothing factor used when an EWMA is created
// with Alpha 0: heavy enough smoothing to ride out single slow tasks,
// light enough to flag a sustained slowdown within a few tasks.
const DefaultEWMAAlpha = 0.3

// EWMA is an exponentially weighted moving average of task latencies.
// The zero value (Alpha 0) uses DefaultEWMAAlpha. Not concurrency-safe;
// each rank owns its own.
type EWMA struct {
	Alpha float64
	value float64
	n     int64
}

// Observe folds one sample in and returns the updated average. The
// first sample initializes the average directly (no zero-bias warmup).
func (e *EWMA) Observe(x float64) float64 {
	a := e.Alpha
	if a <= 0 || a > 1 {
		a = DefaultEWMAAlpha
	}
	e.n++
	if e.n == 1 {
		e.value = x
	} else {
		e.value += a * (x - e.value)
	}
	return e.value
}

// Value returns the current average (0 before any sample).
func (e *EWMA) Value() float64 { return e.value }

// Count returns how many samples have been observed.
func (e *EWMA) Count() int64 { return e.n }

// Median returns the median of the positive entries of vals (0 when
// none are positive).
func Median(vals []float64) float64 {
	pos := make([]float64, 0, len(vals))
	for _, v := range vals {
		if v > 0 {
			pos = append(pos, v)
		}
	}
	if len(pos) == 0 {
		return 0
	}
	sort.Float64s(pos)
	mid := len(pos) / 2
	if len(pos)%2 == 1 {
		return pos[mid]
	}
	return (pos[mid-1] + pos[mid]) / 2
}

// FlagStragglers returns the ranks whose latency EWMA exceeds k× the
// median EWMA. ewma[r] and counts[r] are rank r's current average and
// sample count; ranks with fewer than minSamples samples neither
// contribute to the median nor get flagged (too little evidence either
// way). k <= 1 takes the conventional threshold 2. Flagging needs at
// least two qualified ranks — a median of one rank is just that rank.
func FlagStragglers(ewma []float64, counts []int64, k float64, minSamples int64) []int {
	if k <= 1 {
		k = 2
	}
	if minSamples < 1 {
		minSamples = 1
	}
	qualified := make([]float64, 0, len(ewma))
	for r, v := range ewma {
		if r < len(counts) && counts[r] >= minSamples && v > 0 {
			qualified = append(qualified, v)
		}
	}
	if len(qualified) < 2 {
		return nil
	}
	med := Median(qualified)
	if med <= 0 {
		return nil
	}
	var flagged []int
	for r, v := range ewma {
		if r < len(counts) && counts[r] >= minSamples && v > k*med {
			flagged = append(flagged, r)
		}
	}
	return flagged
}

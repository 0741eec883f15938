package jobs

import (
	"container/heap"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Queue errors surfaced to admission control.
var (
	// ErrQueueFull reports a Submit rejected by the capacity bound — the
	// service maps it to HTTP 429 with a Retry-After hint.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrQueueClosed reports a Submit after Close — the drain path.
	ErrQueueClosed = errors.New("jobs: queue closed")
)

// Queue is a bounded, concurrency-safe priority queue of jobs. Higher
// Spec.Priority runs first; within one priority, submission order (FIFO)
// is preserved via a monotonic sequence number. ClaimUntil blocks until an
// item is available or the queue is closed and empty — the worker-pool
// idiom mirroring the paper's dynamic load balancer, where idle workers
// pull the next task instead of being assigned a static share.
type Queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  pqHeap
	cap    int
	seq    uint64
	closed bool
}

// NewQueue returns a queue admitting at most capacity queued jobs
// (capacity <= 0 means 64).
func NewQueue(capacity int) *Queue {
	if capacity <= 0 {
		capacity = 64
	}
	q := &Queue{cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Submit enqueues j, rejecting with ErrQueueFull past capacity and
// ErrQueueClosed after Close.
func (q *Queue) Submit(j *Job) error {
	return q.submit(j, false)
}

// ForceSubmit enqueues j past the capacity bound (still rejecting after
// Close). The WAL replay path uses it: a crash backlog larger than the
// admission cap must be recovered in full, not dropped — backpressure
// applies to new work, never to work already acknowledged.
func (q *Queue) ForceSubmit(j *Job) error {
	return q.submit(j, true)
}

func (q *Queue) submit(j *Job, force bool) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	if !force && q.items.Len() >= q.cap {
		return ErrQueueFull
	}
	q.seq++
	heap.Push(&q.items, &pqItem{job: j, prio: j.Spec.Priority, eff: j.Spec.Priority,
		seq: q.seq, enqueued: time.Now()})
	q.cond.Signal()
	return nil
}

// Age applies priority aging: a job that has waited longer than `after`
// gains `boost` effective priority per elapsed `after` interval (capped
// at maxAgeSteps intervals), so low-priority work cannot starve behind a
// steady high-priority stream. Returns how many queued jobs had their
// effective priority raised by this call. Base priorities are never
// mutated — aging is a property of the queue, not the job.
func (q *Queue) Age(now time.Time, after time.Duration, boost int) int {
	if after <= 0 || boost <= 0 {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	changed := 0
	for _, it := range q.items {
		steps := int(now.Sub(it.enqueued) / after)
		if steps > maxAgeSteps {
			steps = maxAgeSteps
		}
		if eff := it.prio + steps*boost; eff != it.eff {
			it.eff = eff
			changed++
		}
	}
	if changed > 0 {
		heap.Init(&q.items)
	}
	return changed
}

// maxAgeSteps bounds the aging boost so an ancient job cannot overflow
// past every conceivable explicit priority forever.
const maxAgeSteps = 64

// ClaimUntil blocks until a job is available and returns the
// highest-priority, oldest one. It returns nil once the queue is closed
// and drained — the worker's signal to exit — and also, without popping
// anything, once retired is set, so an elastic worker being scaled down
// stops promptly even while jobs are queued (the survivors claim them
// instead). Pair with Kick to wake blocked claimants after flipping the
// flag.
func (q *Queue) ClaimUntil(retired *atomic.Bool) *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if retired.Load() {
			return nil
		}
		if q.items.Len() > 0 {
			return heap.Pop(&q.items).(*pqItem).job
		}
		if q.closed {
			return nil
		}
		q.cond.Wait()
	}
}

// Kick wakes every blocked ClaimUntil without changing queue
// state, so callers that flipped an external condition (worker
// retirement) get it re-checked.
func (q *Queue) Kick() {
	q.mu.Lock()
	q.cond.Broadcast()
	q.mu.Unlock()
}

// TryClaim is ClaimUntil without blocking: nil when nothing is queued.
func (q *Queue) TryClaim() *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.items.Len() == 0 {
		return nil
	}
	return heap.Pop(&q.items).(*pqItem).job
}

// Remove drops the queued job with the given ID (cancellation support).
// It reports whether the job was found; a job already claimed by a
// worker is not in the queue and returns false.
func (q *Queue) Remove(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, it := range q.items {
		if it.job.ID == id {
			heap.Remove(&q.items, i)
			return true
		}
	}
	return false
}

// Len returns the number of queued (unclaimed) jobs.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.items.Len()
}

// Cap returns the admission capacity.
func (q *Queue) Cap() int { return q.cap }

// Closed reports whether Close has been called.
func (q *Queue) Closed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// Close stops admissions and wakes every blocked ClaimUntil. Already-queued
// jobs remain claimable, so a drain finishes the backlog rather than
// dropping it.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// pqItem is one heap entry; seq breaks priority ties FIFO. eff is the
// aged effective priority (starts equal to prio, raised by Age).
type pqItem struct {
	job      *Job
	prio     int
	eff      int
	seq      uint64
	enqueued time.Time
	index    int
}

type pqHeap []*pqItem

func (h pqHeap) Len() int { return len(h) }

func (h pqHeap) Less(i, j int) bool {
	if h[i].eff != h[j].eff {
		return h[i].eff > h[j].eff // max-heap on (aged) effective priority
	}
	return h[i].seq < h[j].seq // FIFO within a priority
}

func (h pqHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *pqHeap) Push(x any) {
	it := x.(*pqItem)
	it.index = len(*h)
	*h = append(*h, it)
}

func (h *pqHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

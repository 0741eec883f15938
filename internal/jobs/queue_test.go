package jobs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func testJob(id string, prio int) *Job {
	return NewJob(id, "hash-"+id, Spec{Priority: prio}, time.Now())
}

func TestQueueFIFOWithinPriority(t *testing.T) {
	q := NewQueue(64)
	// Interleave two priorities; within each, submission order must hold.
	for i := 0; i < 10; i++ {
		if err := q.Submit(testJob(fmt.Sprintf("lo-%d", i), 0)); err != nil {
			t.Fatal(err)
		}
		if err := q.Submit(testJob(fmt.Sprintf("hi-%d", i), 5)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for q.Len() > 0 {
		got = append(got, q.TryClaim().ID)
	}
	var want []string
	for i := 0; i < 10; i++ {
		want = append(want, fmt.Sprintf("hi-%d", i))
	}
	for i := 0; i < 10; i++ {
		want = append(want, fmt.Sprintf("lo-%d", i))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("claim order[%d] = %s, want %s (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestQueueBoundsAndClose(t *testing.T) {
	q := NewQueue(2)
	if err := q.Submit(testJob("a", 0)); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(testJob("b", 0)); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(testJob("c", 0)); err != ErrQueueFull {
		t.Fatalf("over-capacity submit: got %v, want ErrQueueFull", err)
	}
	q.Close()
	var never atomic.Bool // never set: claims run until closed and drained
	if err := q.Submit(testJob("d", 0)); err != ErrQueueClosed {
		t.Fatalf("post-close submit: got %v, want ErrQueueClosed", err)
	}
	// The backlog stays claimable after Close (drain semantics)...
	if j := q.ClaimUntil(&never); j == nil || j.ID != "a" {
		t.Fatalf("drain claim = %v", j)
	}
	if j := q.ClaimUntil(&never); j == nil || j.ID != "b" {
		t.Fatalf("drain claim 2 = %v", j)
	}
	// ...and an empty closed queue returns nil without blocking.
	if j := q.ClaimUntil(&never); j != nil {
		t.Fatalf("empty closed queue returned %v", j)
	}
}

func TestQueueRemove(t *testing.T) {
	q := NewQueue(8)
	for i := 0; i < 5; i++ {
		_ = q.Submit(testJob(fmt.Sprintf("j%d", i), i%2))
	}
	if !q.Remove("j2") {
		t.Fatal("Remove(j2) = false")
	}
	if q.Remove("j2") {
		t.Fatal("double Remove(j2) = true")
	}
	if q.Remove("nope") {
		t.Fatal("Remove of unknown id = true")
	}
	seen := map[string]bool{}
	for q.Len() > 0 {
		seen[q.TryClaim().ID] = true
	}
	if seen["j2"] || len(seen) != 4 {
		t.Fatalf("claims after remove: %v", seen)
	}
}

// TestQueueConcurrentSubmitCancelDrain is the -race stress promised by
// the PR: submitters, cancelers, and claiming workers race, then the
// queue is closed and drained; every job must be accounted for exactly
// once (claimed or removed), with nothing lost and nothing duplicated.
func TestQueueConcurrentSubmitCancelDrain(t *testing.T) {
	const (
		submitters     = 4
		perSubmitter   = 200
		workers        = 3
		cancelAttempts = 150
	)
	q := NewQueue(submitters * perSubmitter) // roomy: this test is about races, not backpressure

	var never atomic.Bool // never set: workers claim until closed and drained
	var claimed sync.Map
	var claimedN, removedN, submittedN atomic.Int64
	var wg, workerWG sync.WaitGroup

	for w := 0; w < workers; w++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			for {
				j := q.ClaimUntil(&never)
				if j == nil {
					return
				}
				if _, dup := claimed.LoadOrStore(j.ID, true); dup {
					t.Errorf("job %s claimed twice", j.ID)
				}
				claimedN.Add(1)
			}
		}()
	}

	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				id := fmt.Sprintf("s%d-%d", s, i)
				if err := q.Submit(testJob(id, i%3)); err != nil {
					t.Errorf("submit %s: %v", id, err)
					continue
				}
				submittedN.Add(1)
			}
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < cancelAttempts; i++ {
			if q.Remove(fmt.Sprintf("s%d-%d", i%submitters, i%perSubmitter)) {
				removedN.Add(1)
			}
		}
	}()

	wg.Wait()
	q.Close()
	workerWG.Wait()

	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d left", q.Len())
	}
	total := claimedN.Load() + removedN.Load()
	if total != submittedN.Load() {
		t.Fatalf("conservation violated: %d claimed + %d removed != %d submitted",
			claimedN.Load(), removedN.Load(), submittedN.Load())
	}
}

func TestJobFSM(t *testing.T) {
	now := time.Now()
	j := NewJob("j1", "h1", Spec{}, now)
	if j.State() != StateQueued {
		t.Fatalf("new job state = %s", j.State())
	}
	// Illegal: finishing a job that never ran.
	if err := j.MarkDone(&Outcome{}, now); err == nil {
		t.Fatal("Queued → Done should be illegal")
	}
	if err := j.MarkRunning(func() {}, now); err != nil {
		t.Fatal(err)
	}
	if j.Attempts() != 1 {
		t.Fatalf("attempts = %d", j.Attempts())
	}
	// Retry path: Running → Queued → Running.
	if err := j.Requeue(); err != nil {
		t.Fatal(err)
	}
	if err := j.MarkRunning(func() {}, now); err != nil {
		t.Fatal(err)
	}
	if j.Attempts() != 2 {
		t.Fatalf("attempts after retry = %d", j.Attempts())
	}
	if err := j.MarkDone(&Outcome{Energy: -75}, now); err != nil {
		t.Fatal(err)
	}
	if !j.State().Terminal() {
		t.Fatal("Done should be terminal")
	}
	// Terminal states are sticky.
	if err := j.Requeue(); err == nil {
		t.Fatal("Done → Queued should be illegal")
	}
	if changed, err := j.MarkCanceled("late", now); err != nil || changed {
		t.Fatalf("cancel of terminal job: changed=%v err=%v", changed, err)
	}
	st := j.Snapshot()
	if st.State != StateDone || st.Result == nil || st.Result.Energy != -75 || st.Attempts != 2 {
		t.Fatalf("snapshot = %+v", st)
	}
}

func TestCacheLRU(t *testing.T) {
	c := NewCache(2)
	reg := telemetry.NewRegistry()
	hitC, missC, evictC := reg.Counter("hit"), reg.Counter("miss"), reg.Counter("evict")
	c.Instrument(hitC, missC, evictC)
	c.Put("a", &Outcome{Energy: 1})
	c.Put("b", &Outcome{Energy: 2})
	if _, ok := c.Get("a"); !ok { // refresh a → b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", &Outcome{Energy: 3}) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if out, ok := c.Get("a"); !ok || out.Energy != 1 {
		t.Fatal("a lost")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if hits, misses := hitC.Value(), missC.Value(); hits != 2 || misses != 1 {
		t.Fatalf("stats = %d/%d", hits, misses)
	}
	if evicts := evictC.Value(); evicts != 1 {
		t.Fatalf("evictions = %d, want 1", evicts)
	}
}

func TestQueuePriorityAging(t *testing.T) {
	q := NewQueue(8)
	now := time.Now()
	lo := NewJob("job-000001", "a", Spec{Priority: 0}, now)
	hi1 := NewJob("job-000002", "b", Spec{Priority: 5}, now)
	hi2 := NewJob("job-000003", "c", Spec{Priority: 5}, now)
	if err := q.Submit(lo); err != nil {
		t.Fatal(err)
	}
	// Let the low-priority job accumulate real queue wait before the
	// high-priority stream arrives — aging is driven by enqueue time.
	time.Sleep(120 * time.Millisecond)
	for _, j := range []*Job{hi1, hi2} {
		if err := q.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	// Without aging the low-priority job drains last.
	if got := q.TryClaim(); got.ID != hi1.ID {
		t.Fatalf("first claim %s, want %s", got.ID, hi1.ID)
	}
	// lo has waited >= 2 intervals of 50ms: 0 + 2*3 = 6 > 5, so it now
	// outranks the remaining high-priority job (which has waited ~0).
	if changed := q.Age(time.Now(), 50*time.Millisecond, 3); changed < 1 {
		t.Fatalf("Age changed %d items, want >= 1", changed)
	}
	if got := q.TryClaim(); got.ID != lo.ID {
		t.Fatalf("post-aging claim %s, want starved job %s", got.ID, lo.ID)
	}
	if got := q.TryClaim(); got.ID != hi2.ID {
		t.Fatalf("final claim %s, want %s", got.ID, hi2.ID)
	}
}

func TestQueueForceSubmitBypassesCap(t *testing.T) {
	q := NewQueue(1)
	now := time.Now()
	if err := q.Submit(NewJob("job-000001", "a", Spec{}, now)); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(NewJob("job-000002", "b", Spec{}, now)); err != ErrQueueFull {
		t.Fatalf("over-cap Submit: %v, want ErrQueueFull", err)
	}
	if err := q.ForceSubmit(NewJob("job-000003", "c", Spec{}, now)); err != nil {
		t.Fatalf("ForceSubmit: %v", err)
	}
	if q.Len() != 2 {
		t.Fatalf("len = %d, want 2", q.Len())
	}
	q.Close()
	if err := q.ForceSubmit(NewJob("job-000004", "d", Spec{}, now)); err != ErrQueueClosed {
		t.Fatalf("ForceSubmit after close: %v, want ErrQueueClosed", err)
	}
}

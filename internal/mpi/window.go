package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// --- one-sided windows (MPI-3 emulation) ---

// window is the storage behind one collective window creation: a float
// region (Put/Get/Acc, serialized by mu) and a counter region (atomic
// FetchAdd/Load/Store/CAS).
type window struct {
	mu   sync.Mutex
	data []float64
	ctr  []atomic.Int64
}

// Win is one rank's handle to a one-sided window.
type Win struct {
	c *Comm
	w *window
}

// WinCreate collectively creates a window of floats float slots and
// counters counter slots. Windows are matched the way MPI matches
// MPI_Win_create: every rank's k-th WinCreate returns the world's k-th
// window, the same call-order contract collectives follow. No barrier is
// involved, so survivors of a rank failure can go on creating windows.
// The first creator fixes the shape; a rank asking for another shape at
// the same ordinal panics (a loud RankFailure) and leaves the window as
// it was. The world keeps window k only until every live rank (every
// rank FailedRanks does not name) has created it; from then on the
// ranks' handles alone hold it, so it is collected with them. A rank
// that dies or is fenced before creating k no longer counts: the world
// lets k go then if every other rank has created it.
func (c *Comm) WinCreate(floats, counters int) *Win {
	c.checkFenced()
	w := c.world
	w.winMu.Lock()
	defer w.winMu.Unlock()
	k := w.winSeq[c.rank]
	win := w.wins[k]
	if win == nil {
		win = &window{data: make([]float64, floats), ctr: make([]atomic.Int64, counters)}
		w.wins[k] = win
	}
	if len(win.data) != floats || len(win.ctr) != counters {
		panic(fmt.Sprintf("mpi: rank %d creates window %d with %d floats and %d counters; it was created with %d and %d",
			c.rank, k, floats, counters, len(win.data), len(win.ctr)))
	}
	w.winSeq[c.rank]++
	w.failMu.Lock()
	w.freeHeld()
	w.failMu.Unlock()
	return &Win{c: c, w: win}
}

// freeHeld drops every window that every live rank has created. It runs
// after each creation and whenever a rank fails or is fenced; the caller
// holds winMu and then failMu, in that order.
func (w *World) freeHeld() {
	for k := range w.wins {
		if w.heldByLive(k) {
			delete(w.wins, k)
		}
	}
}

// heldByLive reports whether every rank FailedRanks does not name has
// created window k; the caller holds winMu and failMu.
func (w *World) heldByLive(k int) bool {
	for r := range w.size {
		if w.winSeq[r] <= k && !w.failedLocked(r) {
			return false
		}
	}
	return true
}

// Put stores data at offset of the float region (one-sided put).
func (h *Win) Put(offset int, data []float64) {
	h.c.checkFenced()
	h.w.mu.Lock()
	defer h.w.mu.Unlock()
	copy(h.w.data[offset:offset+len(data)], data)
}

// Get copies the float region at offset into out (one-sided get).
func (h *Win) Get(offset int, out []float64) {
	h.w.mu.Lock()
	defer h.w.mu.Unlock()
	copy(out, h.w.data[offset:offset+len(out)])
}

// Acc atomically accumulates (sums) data into the float region at offset
// — the DDI acc operation used by distributed-data SCF variants.
func (h *Win) Acc(offset int, data []float64) {
	h.c.checkFenced()
	h.w.mu.Lock()
	defer h.w.mu.Unlock()
	dst := h.w.data[offset:][:len(data)]
	for i, v := range data {
		dst[i] += v
	}
}

// Local returns the float region itself, for loads and stores in place —
// the MPI_Win_shared_query analogue, used on a rank's own window. Nothing
// locks it: the caller orders its accesses against every other reader and
// writer with barriers.
func (h *Win) Local() []float64 { return h.w.data }

// FetchAdd atomically adds delta to counter idx and returns the previous
// value — the primitive under DDI's dlbnext. The fault hook fires BEFORE
// the add, so a rank killed at a DLB draw never consumes the drawn index.
func (h *Win) FetchAdd(idx int, delta int64) int64 {
	h.c.checkFenced()
	h.c.faultHook(SiteDLB)
	return h.w.ctr[idx].Add(delta) - delta
}

// Load atomically reads counter idx.
func (h *Win) Load(idx int) int64 { return h.w.ctr[idx].Load() }

// Store atomically sets counter idx.
func (h *Win) Store(idx int, v int64) {
	h.c.checkFenced()
	h.w.ctr[idx].Store(v)
}

// CAS atomically compares-and-swaps counter idx, reporting success — the
// primitive under the DDI lease table's claim/steal/complete transitions.
func (h *Win) CAS(idx int, old, new int64) bool {
	h.c.checkFenced()
	return h.w.ctr[idx].CompareAndSwap(old, new)
}

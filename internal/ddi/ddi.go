// Package ddi reimplements the slice of the GAMESS Distributed Data
// Interface that the paper's Hartree-Fock algorithms use: the dynamic
// load balancer (ddi_dlbnext) and the global matrix sum (ddi_gsumf).
// (Distributed matrices live in internal/distmat, on the same one-sided
// windows.)
//
// The paper notes that the classic DDI spawns a data-server process per
// compute rank (doubling rank counts and memory), while the MPI-3 version
// used for its benchmarks relies on native one-sided communication and
// needs no data servers. This implementation corresponds to the MPI-3
// flavor: the DLB counter is a one-sided fetch-and-add on a shared
// window, and no server ranks exist.
package ddi

import (
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// Context is one rank's handle to the DDI services.
type Context struct {
	Comm       *mpi.Comm
	epoch      int64
	leaseCycle int64 // lease-based DLB cycle sequence (see lease.go)
	ewma       EWMA  // this rank's task-latency average (see straggler.go)
	// memberEpoch keys the shared straggler window by membership epoch
	// (see straggler.go): after an elastic grow/shrink/migration the
	// world size changes, and a resized world must never read the stale
	// EWMA vector a differently-sized predecessor published.
	memberEpoch int64
	// DLBNext's telemetry handles, resolved once: a hybrid team waits at a
	// barrier behind every draw.
	draws    *telemetry.Counter
	drawHist *telemetry.Histogram
}

// New wraps an MPI communicator with DDI services.
func New(c *mpi.Comm) *Context {
	tel := c.Telemetry()
	return &Context{Comm: c, draws: tel.Counter("ddi.dlb.draws"),
		drawHist: tel.Histogram(telemetry.TimedOpHistogram("dlb.draw", "dlbnext"))}
}

// NewShrunk wraps a communicator of a world rebuilt after rank failure.
// epoch keys the membership-scoped shared windows (the straggler EWMA
// vector; see SetMembershipEpoch) so the reassigned world never reads
// state a differently-sized predecessor published — the ddi half of
// window reassignment when a distributed computation shrinks and its
// tiles are reconstructed onto a new owner map (internal/distmat ABFT).
func NewShrunk(c *mpi.Comm, epoch int64) *Context {
	d := New(c)
	d.SetMembershipEpoch(epoch)
	return d
}

// dlbWindow is the shared window holding the DLB counter; the epoch index
// separates successive DLB cycles without requiring counter zeroing races.
const dlbWindow = "ddi.dlb"

// DLBNext returns the next global task index (0, 1, 2, ...) across all
// ranks — ddi_dlbnext. Every call hands out a unique index; work sharing
// follows from ranks skipping indices they did not draw.
func (d *Context) DLBNext() int64 {
	d.draws.Add(1)
	end := d.Comm.Telemetry().TimedOpInto(d.drawHist, "dlb.draw", "dlbnext", d.Comm.Rank(), 0)
	v := d.Comm.FetchAdd(dlbWindow, int(d.epoch%32), 1)
	end()
	return v
}

// DLBReset starts a new DLB cycle. Collective: every rank must call it at
// the same point; it barriers, advances the epoch, and zeroes the new
// counter slot.
func (d *Context) DLBReset() {
	d.Comm.Barrier()
	d.epoch++
	if d.Comm.Rank() == 0 {
		d.Comm.CounterStore(dlbWindow, int(d.epoch%32), 0)
	}
	d.Comm.Barrier()
}

// GSumF sums buf element-wise across all ranks, in place on every rank —
// ddi_gsumf, the Fock matrix reduction closing Algorithms 1-3.
func (d *Context) GSumF(buf []float64) {
	d.Comm.AllreduceSumInPlace(buf)
}

// GSumI sums a scalar across ranks (convenience for counters in tests and
// statistics).
func (d *Context) GSumI(v int64) int64 {
	buf := []float64{float64(v)}
	d.Comm.AllreduceSumInPlace(buf)
	return int64(buf[0])
}

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
	Comm      *mpi.Comm
	epoch     int64
	dlb       *mpi.Win // DLB counters, one slot per epoch mod dlbSlots
	straggler *mpi.Win // published task latencies (see straggler.go)
	ewma      EWMA     // this rank's task-latency average (see straggler.go)
	// Telemetry handles, resolved once: a hybrid team waits at a barrier
	// behind every DLBNext draw, and a lease drain polls Stragglers.
	draws    *telemetry.Counter
	drawHist *telemetry.Histogram
	flagged  *telemetry.Gauge
}

// dlbSlots is the DLB window's counter count; the epoch index separates
// successive DLB cycles without requiring counter zeroing races.
const dlbSlots = 32

// New collectively wraps an MPI communicator with DDI services: it
// creates the context's DLB and straggler windows, so every rank must
// call it at the same point of its window creation order.
func New(c *mpi.Comm) *Context {
	tel := c.Telemetry()
	return &Context{Comm: c,
		dlb:       c.WinCreate(0, dlbSlots),
		straggler: c.WinCreate(0, 2*c.Size()),
		draws:     tel.Counter("ddi.dlb.draws"),
		drawHist:  tel.Histogram("dlb.draw.dlbnext_ns"),
		flagged:   tel.Gauge("straggler.flagged")}
}

// DLBNext returns the next global task index (0, 1, 2, ...) across all
// ranks — ddi_dlbnext. Every call hands out a unique index; work sharing
// follows from ranks skipping indices they did not draw.
func (d *Context) DLBNext() int64 {
	d.draws.Add(1)
	sp := d.Comm.Telemetry().Start("dlb.draw", "dlbnext", d.Comm.Rank(), 0, d.drawHist)
	v := d.dlb.FetchAdd(int(d.epoch%dlbSlots), 1)
	sp.End(nil)
	return v
}

// DLBReset starts a new DLB cycle. Collective: every rank must call it at
// the same point; it barriers, advances the epoch, and zeroes the new
// counter slot.
func (d *Context) DLBReset() {
	d.Comm.Barrier()
	d.epoch++
	if d.Comm.Rank() == 0 {
		d.dlb.Store(int(d.epoch%dlbSlots), 0)
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

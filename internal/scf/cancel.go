package scf

// Cooperative cancellation of the SCF loop. The driver checks for
// cancellation once per iteration — between Fock builds, where every rank
// holds identical state — so a canceled run stops at a clean iteration
// boundary instead of mid-collective.
//
// Parallel runs cannot decide locally: the shared Context flips from
// "live" to "canceled" at one instant, and two ranks reading it a
// microsecond apart would disagree, leaving the late rank blocked in the
// next collective. Options.cancelAgree closes that race: each rank feeds
// its local observation into a tiny max-allreduce, so either every rank
// stops at iteration k or none does.

import (
	"errors"
	"fmt"

	"repro/internal/mpi"
)

// ErrCanceled is the sentinel reported (via errors.Is) when an SCF run is
// stopped by context cancellation or deadline expiry rather than by a
// numerical failure.
var ErrCanceled = errors.New("scf run canceled")

// CanceledError reports an SCF run stopped by its context. It matches
// ErrCanceled under errors.Is, and unwraps to the context's cause so
// callers can distinguish context.Canceled from context.DeadlineExceeded.
type CanceledError struct {
	Iter  int   // iteration at which the cancellation was observed (0 = before the loop)
	Cause error // context.Cause at observation time, may be nil
}

func (e *CanceledError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("scf: run canceled at iteration %d: %v", e.Iter, e.Cause)
	}
	return fmt.Sprintf("scf: run canceled at iteration %d", e.Iter)
}

// Is makes errors.Is(err, ErrCanceled) hold for every CanceledError.
func (e *CanceledError) Is(target error) bool { return target == ErrCanceled }

// Unwrap exposes the context cause (context.Canceled or
// context.DeadlineExceeded) to errors.Is.
func (e *CanceledError) Unwrap() error { return e.Cause }

// CollectiveCancel returns a cancelAgree implementation for a parallel
// run on comm c: each rank contributes its local observation to a
// one-element max-allreduce, so all ranks reach the identical decision at
// the identical iteration. The allreduce is three floats of traffic per
// iteration — noise next to the n^2-element Fock allreduce that follows.
func CollectiveCancel(c *mpi.Comm) func(local bool) bool {
	in := make([]float64, 1)
	out := make([]float64, 1)
	return func(local bool) bool {
		in[0] = 0
		if local {
			in[0] = 1
		}
		c.Allreduce(mpi.Max, in, out)
		return out[0] > 0
	}
}

package jobs

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro"
	"repro/internal/telemetry"
)

// ErrUnconverged is reported (via errors.Is) when a run completes its
// iteration budget without reaching the convergence thresholds. It is
// retryable: the service's bounded-retry loop gets another attempt at it.
var ErrUnconverged = errors.New("scf did not converge")

// Runner executes one attempt of a job spec through the facade. Retry
// policy lives in the service's worker loop (it owns the FSM and the
// queue); the runner just resolves a spec to its repro.Plan and packages
// the outcome.
type Runner struct {
	// Telemetry, when set, instruments every run the runner executes —
	// including the runtime's chaos.* and dlb.* mitigation counters — on
	// the shared session, so they surface through the service's /metrics.
	Telemetry *repro.Telemetry
}

// RunOnce executes the normalized spec under ctx and returns the
// outcome. Cancellation and deadline expiry surface as errors matching
// repro.ErrCanceled; everything else is a run failure.
//
// When ctx carries a telemetry.TraceContext, the run executes under a
// trace-derived session: a job.run span brackets the whole attempt and
// every span the SCF/Fock/DDI/MPI layers record inherits the request's
// trace ID — the hand-off that lets the service stitch one waterfall
// from ingress down to individual MPI operations.
func (r Runner) RunOnce(ctx context.Context, spec Spec) (*Outcome, error) {
	n := spec.Normalized()
	mol, err := n.ResolveMolecule()
	if err != nil {
		return nil, err
	}
	plan, err := n.Plan()
	if err != nil {
		return nil, err
	}
	tc, _ := telemetry.TraceFromContext(ctx)
	tel := r.Telemetry.WithTrace(tc.TraceID)
	plan.SCF.Telemetry = tel
	start := time.Now()
	sp := tel.Start("job.run", n.Mode, telemetry.DriverPid, tc.Tid, nil)
	res, err := repro.Run(ctx, mol, n.Basis, plan)
	sp.End(map[string]any{"molecule": n.Molecule, "basis": n.Basis, "ok": err == nil})
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Energy:     res.Energy,
		Converged:  res.Converged,
		Iterations: res.Iterations,
		NumBF:      res.D.Rows,
		WallMS:     float64(time.Since(start)) / float64(time.Millisecond),
		Mode:       n.Mode,
		Restarts:   res.Recovery.Restarts,
	}
	if !res.Converged {
		// Exhausting MaxIter is a run failure, not a result: only converged
		// energies are cacheable or billable as done.
		return nil, fmt.Errorf("%w in %d iterations (rms-density > %g)",
			ErrUnconverged, res.Iterations, n.ConvDens)
	}
	return out, nil
}

// Permanent reports whether err should not be retried: cancellations and
// deadline expiries (the job's budget is spent, not the cluster's
// health) and spec-level errors that are deterministic.
func Permanent(err error) bool {
	return errors.Is(err, repro.ErrCanceled) ||
		errors.Is(err, repro.ErrUnsupported) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

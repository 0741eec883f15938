package simulate

// Failure-model experiment: expected time-to-solution of the 5.0 nm
// Figure 7 run under MTBF-driven node failures, comparing the two
// recovery strategies the runtime implements (internal/scf/recovery.go):
//
//   - restart-from-checkpoint: a failure poisons the collective world;
//     the job is relaunched on the survivors and warm-starts from the
//     last per-iteration checkpoint, losing half an iteration on average
//     plus the relaunch latency — the automated version of GAMESS's
//     PUNCH-file restart workflow;
//
//   - lease re-issue: with the resilient Fock builder the failure is
//     absorbed in-flight — the survivors re-issue the dead rank's DLB
//     task leases, so per failure the job only pays the detection delay
//     plus the dead node's share of the remaining work spread over the
//     survivors.
//
// Failures arrive as a Poisson process with rate lambda =
// 1/Machine.SystemMTBFSec(nodes) (independent exponential node
// lifetimes). With a per-failure recovery cost C, the standard renewal
// argument gives the expected completion time as the fixed point
// E[T] = T0 + lambda*E[T]*C, i.e. E[T] = T0/(1 - lambda*C); the run
// diverges (never finishes in expectation) when lambda*C >= 1.

import (
	"math"

	"repro/internal/knl"
)

// Recovery-cost constants of the failure model.
const (
	// resilienceIters is the SCF iteration count charged for a full
	// time-to-solution (a well-behaved RHF with DIIS converges in ~18).
	resilienceIters = 18
	// resilienceRestartSec is the relaunch latency of the restart
	// strategy: tear-down, re-queue on the survivors, re-read the
	// checkpoint (~10 min, optimistic for a capability-class queue).
	resilienceRestartSec = 600.0
	// resilienceDetectSec is the failure-detection delay of the lease
	// strategy (the runtime's deadline watchdog notices the dead rank).
	resilienceDetectSec = 5.0
	// resilienceFSBandwidth is the parallel-filesystem bandwidth charged
	// for the per-iteration checkpoint write (bytes/s).
	resilienceFSBandwidth = 50e9
)

// ResilienceRow is one node count of the failure-model sweep.
type ResilienceRow struct {
	Nodes       int
	SysMTBFH    float64 // system MTBF at this node count, hours
	IterSec     float64 // failure-free Fock-build time per iteration
	BaseSec     float64 // failure-free time-to-solution (resilienceIters iterations)
	ExpFailures float64 // expected failures during the failure-free run
	RestartSec  float64 // E[T] under checkpoint-restart recovery (+Inf = diverges)
	ReissueSec  float64 // E[T] under lease re-issue recovery (+Inf = diverges)
	RestartOv   float64 // RestartSec/BaseSec - 1 (fractional overhead)
	ReissueOv   float64 // ReissueSec/BaseSec - 1
}

// expectedTime solves the renewal fixed point E[T] = t0/(1-lambda*cost),
// returning +Inf when the failure rate outruns recovery.
func expectedTime(t0, lambda, cost float64) float64 {
	d := 1 - lambda*cost
	if d <= 0 {
		return math.Inf(1)
	}
	return t0 / d
}

// RunResilience sweeps the Figure 7 configuration (5.0 nm, shared-Fock,
// 4 ranks x 64 threads, 512-3,000 Theta nodes) under the MTBF failure
// model, reporting expected time-to-solution for both recovery
// strategies. The per-iteration build time is Figure 7's own simulator
// run (ProfileCache.fig7Sweep), so the two artifacts stay consistent.
func RunResilience(pc *ProfileCache) ([]ResilienceRow, error) {
	sweep, err := pc.fig7Sweep()
	if err != nil {
		return nil, err
	}
	p, err := pc.Get("5.0nm")
	if err != nil {
		return nil, err
	}
	theta := knl.Theta()
	// Per-iteration checkpoint: the density matrix, written once by rank 0.
	nbf := float64(p.W.NBF)
	ckptWriteSec := 8 * nbf * nbf / resilienceFSBandwidth

	rows := make([]ResilienceRow, 0, len(fig7Nodes))
	for i, nodes := range fig7Nodes {
		iterSec := sweep[i].FockSec
		base := resilienceIters * iterSec
		lambda := 1 / theta.SystemMTBFSec(nodes)

		// Restart: lose half the current iteration on average, pay the
		// relaunch latency; the failure-free time also carries the
		// per-iteration checkpoint writes.
		restartCost := 0.5*iterSec + resilienceRestartSec
		restart := expectedTime(base+resilienceIters*ckptWriteSec, lambda, restartCost)

		// Re-issue: detection delay plus the dead node's remaining share,
		// T0/(2(n-1)) for a uniformly-timed failure spread over survivors.
		reissueCost := resilienceDetectSec + base/(2*float64(nodes-1))
		reissue := expectedTime(base, lambda, reissueCost)

		rows = append(rows, ResilienceRow{
			Nodes:       nodes,
			SysMTBFH:    theta.SystemMTBFSec(nodes) / 3600,
			IterSec:     iterSec,
			BaseSec:     base,
			ExpFailures: lambda * base,
			RestartSec:  restart,
			ReissueSec:  reissue,
			RestartOv:   restart/base - 1,
			ReissueOv:   reissue/base - 1,
		})
	}
	return rows, nil
}

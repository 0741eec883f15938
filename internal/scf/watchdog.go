package scf

// Convergence watchdog: the numerical-robustness half of the integrity
// layer. A corrupted warm-start, an ill-conditioned basis, or a molecule
// with a small HOMO-LUMO gap can make the plain Roothaan/DIIS iteration
// diverge or oscillate forever; production codes (GAMESS included)
// answer with damping and level shifting. The watchdog observes each
// iteration's (dE, rmsD) and, when it sees divergence or oscillation,
// walks a one-way graceful-degradation ladder:
//
//	level 1  static damping    D <- (1-a) D_new + a D_old
//	level 2  + level shifting  F <- F + gamma (S - S D S / 2)
//	level 3  + DIIS reset      drop the (poisoned) extrapolation history
//	level 4  + DIIS off        bare damped Roothaan steps
//
// Each measure slows convergence but enlarges the basin of attraction;
// the ladder is cumulative and never walked back within a run, trading
// speed for certainty exactly like a human operator would. Every
// escalation is recorded in Result.History (IterInfo.Degrade) and on
// telemetry (integrity.watchdog.escalations, one instant event each).
//
// Detection is deterministic from replicated quantities (dE, rmsD are
// identical on every rank), so in a parallel run all ranks escalate in
// lockstep without communicating.

import "math"

// Watchdog ladder levels.
const (
	wdHealthy = iota
	wdDamping
	wdLevelShift
	wdDIISReset
	wdRoothaan
)

// wdLevelNames names the ladder rungs for History/telemetry records.
var wdLevelNames = [...]string{"", "damping", "level-shift", "diis-reset", "roothaan"}

// Watchdog tuning. The thresholds are loose on purpose: a healthy SCF
// must never trip them (energy rises above microhartree scale and
// non-decaying sign-alternating dE simply do not happen on a converging
// run), while a genuinely sick run trips within a few iterations. The
// oscillation floor leaves room for the open shells that ride the same
// loop: a converging UHF may alternate dE at up to ~1e-5 Ha for a few
// iterations without being sick. (Under the joint DIIS solve the O2
// triplet and the OH doublet converge in 9 iterations and never trip the
// ladder.)
const (
	wdPatience   = 2    // consecutive bad iterations before escalating
	wdRiseTol    = 1e-4 // dE above this counts as divergence (Ha)
	wdOscTol     = 1e-5 // oscillation amplitude below this is ignored
	wdOscWindow  = 4    // iterations of alternating sign to call oscillation
	wdDampFactor = 0.5  // a in D <- (1-a) D_new + a D_old
	wdShiftGamma = 0.5  // virtual-orbital level shift (Ha)
)

type wdPoint struct{ dE, rms float64 }

// watchdogState tracks the ladder for one SCF run.
type watchdogState struct {
	level   int
	strikes int
	hist    []wdPoint
}

// observe ingests one completed iteration and returns the name of the
// rung escalated to, or "" when no escalation happened.
func (wd *watchdogState) observe(dE, rms float64) string {
	wd.hist = append(wd.hist, wdPoint{dE: dE, rms: rms})
	if !wd.iterationBad() {
		wd.strikes = 0
		return ""
	}
	wd.strikes++
	if wd.strikes < wdPatience || wd.level >= wdRoothaan {
		return ""
	}
	wd.strikes = 0
	wd.level++
	return wdLevelNames[wd.level]
}

// escalate forces one rung immediately (used when a validator rejects a
// density — evidence stronger than any trend heuristic).
func (wd *watchdogState) escalate() string {
	if wd.level >= wdRoothaan {
		return ""
	}
	wd.strikes = 0
	wd.level++
	return wdLevelNames[wd.level]
}

// iterationBad classifies the newest iteration: non-finite progress,
// a significant energy rise (the variational energy must go down), or
// sustained sign-alternating dE with non-decaying amplitude.
func (wd *watchdogState) iterationBad() bool {
	n := len(wd.hist)
	p := wd.hist[n-1]
	// The first dE is (E1 - +Inf) by construction: no baseline yet, so
	// nothing can be judged — in particular its -Inf must not count as
	// divergence.
	if n < 2 {
		return false
	}
	if math.IsNaN(p.dE) || math.IsInf(p.dE, 0) || math.IsNaN(p.rms) || math.IsInf(p.rms, 0) {
		return true
	}
	if p.dE > wdRiseTol {
		return true
	}
	if n >= wdOscWindow {
		osc := true
		for i := n - wdOscWindow + 1; i < n; i++ {
			if wd.hist[i].dE*wd.hist[i-1].dE >= 0 {
				osc = false
				break
			}
		}
		if osc && math.Abs(p.dE) > wdOscTol &&
			math.Abs(p.dE) > 0.5*math.Abs(wd.hist[n-wdOscWindow].dE) {
			return true
		}
	}
	return false
}

// damping returns the density mixing factor for the current rung (0 =
// no damping).
func (wd *watchdogState) damping() float64 {
	if wd.level >= wdDamping {
		return wdDampFactor
	}
	return 0
}

// shift returns the level-shift gamma for the current rung (0 = none).
func (wd *watchdogState) shift() float64 {
	if wd.level >= wdLevelShift {
		return wdShiftGamma
	}
	return 0
}

// diisOff reports whether the ladder has turned extrapolation off.
func (wd *watchdogState) diisOff() bool { return wd.level >= wdRoothaan }

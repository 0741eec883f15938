// Package simulate is the discrete-event performance simulator that
// executes the control flow of the paper's three Fock-build algorithms
// (DLB grabs, OpenMP scheduling, buffer flushes, barriers, reductions)
// against the KNL node and cluster models, at the full benchmark scale
// (graphene bilayers up to 30,240 basis functions on 3,000 nodes) that
// cannot be run for real in this environment.
//
// The workload statistics (shell counts, classes, Schwarz-surviving pair
// structure) come from the real molecule/basis machinery; per-quartet
// costs are calibrated against this repository's actual ERI kernels; the
// hardware parameters substitute for the Xeon Phi silicon per DESIGN.md.
package simulate

import "repro/internal/basis"

// ShellClass coarsely classifies shells for cost lookup: the 6-31G(d)
// carbon has a heavily contracted S core shell, two SP (L) valence
// shells, and one D shell; their quartet costs differ by orders of
// magnitude (contraction length to the fourth power, angular momentum).
type ShellClass uint8

// Shell classes.
const (
	ClassS ShellClass = iota // heavily contracted s (core)
	ClassL                   // fused sp valence
	ClassD                   // cartesian d polarization
	numShellClasses
)

// ClassOf maps a built shell onto its class.
func ClassOf(s *basis.Shell) ShellClass {
	switch {
	case s.MaxL() >= 2:
		return ClassD
	case len(s.Moments) > 1:
		return ClassL
	default:
		return ClassS
	}
}

// PairClass combines two shell classes order-independently (6 values).
type PairClass uint8

// PairClassOf returns the unordered pair class.
func PairClassOf(a, b ShellClass) PairClass {
	if a < b {
		a, b = b, a
	}
	return PairClass(int(a)*(int(a)+1)/2 + int(b))
}

// NumPairClasses is the number of unordered shell-class pairs.
const NumPairClasses = 6

// The calibrated time constants (seconds) of the simulator. They were
// measured on this repository's own kernels (BenchmarkERIKernels,
// BenchmarkFlush, etc.) and rescaled to a 1.3 GHz KNL core running
// scalar-heavy Fortran (the absolute scale is secondary to the reproduced
// SHAPES; only ratios really matter).
const (
	// tScreen: one Schwarz screening check in the inner loops.
	tScreen = 4e-9
	// tPairCheck: cost of an ij top-loop iteration that is skipped
	// entirely by prescreening (index decode + one check).
	tPairCheck = 12e-9
	// tDLBLatencyNode: one-sided fetch-and-add round trip seen by the
	// caller on a single node (multi-node runs use the machine network's
	// RMA latency).
	tDLBLatencyNode = 0.4e-6
	// tDLBService: serialization time at the counter's home node per grab
	// (the DLB contention bottleneck at large rank counts).
	tDLBService = 0.15e-6
	// tBarrierPerLog: thread-team barrier cost coefficient; a barrier of
	// T threads costs tBarrierPerLog * ceil(log2 T).
	tBarrierPerLog = 1.5e-6
	// tFlushPerElem: per matrix element cost of the chunked buffer
	// reductions (paper Figure 1).
	tFlushPerElem = 1.2e-9
	// memBoundFrac: fraction of quartet time that is memory-bandwidth
	// bound (drives the MCDRAM/DDR and footprint-dependent penalties).
	memBoundFrac = 0.45
)

// sharedTrafficFrac is the fraction of an algorithm's quartet+update time
// that is shared-data coherence traffic; it is scaled by the cluster-mode
// "shared" penalty. Largest for the shared-Fock code (it writes a shared
// matrix), small for replicated-Fock codes.
func sharedTrafficFrac(alg string) float64 {
	switch alg {
	case AlgMPIOnly:
		return 0.05
	case AlgPrivateFock:
		return 0.12
	case AlgSharedFock:
		return 0.30
	}
	return 0
}

// QuartetRatios is the single-thread cost of one shell quartet, per
// (bra, ket) pair class, relative to the others: its ERI evaluation plus
// the Fock updates. The entries are times MEASURED (in microseconds) on
// this repository's direct McMurchie-Davidson engine (Engine.ShellQuartet,
// unpruned primitive loops — what cmd/calibrate timed before the
// production PairCache kernel existed) for carbon 6-31G(d) shell classes,
// bra/ket symmetrized. The heavily contracted S (6 primitives) and L (3
// primitives) shells dominate, exactly as in GAMESS. cmd/calibrate prints
// the production PairCache kernel's matrix beside this one: its S classes
// are ~10x cheaper relative to L and D (pruned pair lists, scalar all-s
// path). Those ratios keep every shape gate green too but move the
// absolute times 27% further from the paper's (EXPERIMENTS.md, "ERI
// kernel"), so these stay. Rows/cols: SS, LS, LL, DS, DL, DD. Read-only.
var QuartetRatios = [NumPairClasses][NumPairClasses]float64{
	// ket:  SS   LS    LL   DS   DL   DD
	{756, 536, 613, 273, 316, 186},  // SS bra
	{536, 472, 628, 247, 384, 266},  // LS
	{613, 628, 1270, 347, 770, 436}, // LL
	{273, 247, 347, 129, 242, 194},  // DS
	{316, 384, 770, 242, 505, 309},  // DL
	{186, 266, 436, 194, 309, 225},  // DD
}

// quartetScale turns QuartetRatios into KNL seconds: microseconds, scaled
// by 1/5 for the clock/IPC and kernel-efficiency gap between the
// measuring CPU and a 1.3 GHz KNL core running GAMESS's Fortran kernels.
// It is the machine's half of the cost; the ratios are the integral
// code's.
const quartetScale = 1.0 / 5 * 1e-6

// quartetTime returns the single-thread time of one quartet with the
// given bra and ket pair classes. The product is taken at run time, in
// float64: a constant-folded one can differ in the last bit, and every
// paper artifact is pinned byte for byte.
func quartetTime(bra, ket PairClass) float64 {
	return QuartetRatios[bra][ket] * quartetScale
}

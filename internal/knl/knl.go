// Package knl models the paper's hardware for the discrete-event
// simulator. The node is the second-generation Intel Xeon Phi (Knights
// Landing) processor: cores, hyperthreads, the MCDRAM/DDR4 two-level
// memory, the cluster modes (all-to-all, quadrant, SNC-4), the memory
// modes (cache, flat), and thread affinity (KMP_AFFINITY
// compact/scatter/balanced/none). The machines (machine.go) are the two
// clusters of Table 1 built from it, Theta and JLSE, with their
// interconnects, job shapes and failure rate.
//
// This package is a SUBSTITUTION for hardware this reproduction does not
// have (see DESIGN.md): the mode and affinity effects are explicit
// multiplicative models on the compute, shared-memory-traffic, and
// synchronization components of the simulated runtime, with parameters
// chosen to reflect the qualitative behaviour the paper reports
// (Figures 3 and 5) and the well-documented KNL characteristics
// (two hyperthreads per core reach peak issue rate; MCDRAM ~4x DDR4
// bandwidth; all-to-all mode has the worst tag-directory locality).
package knl

import "fmt"

// ClusterMode is the KNL cache-coherence clustering mode.
type ClusterMode string

// Cluster modes benchmarked by the paper (Figure 5).
const (
	AllToAll ClusterMode = "all-to-all"
	Quadrant ClusterMode = "quadrant"
	SNC4     ClusterMode = "snc-4"
)

// MemoryMode is the MCDRAM configuration.
type MemoryMode string

// Memory modes benchmarked by the paper (Figure 5).
const (
	CacheMode  MemoryMode = "cache" // MCDRAM as direct-mapped L3 over DDR4
	FlatDDR    MemoryMode = "flat-ddr4"
	FlatMCDRAM MemoryMode = "flat-mcdram"
)

// Affinity is the thread-pinning policy (KMP_AFFINITY).
type Affinity string

// Affinity types studied in Figure 3.
const (
	Compact  Affinity = "compact"
	Scatter  Affinity = "scatter"
	Balanced Affinity = "balanced"
	NoPin    Affinity = "none"
)

// Node describes one Xeon Phi node.
type Node struct {
	Model           string
	Cores           int     // physical cores (64 for 7210/7230)
	HTPerCore       int     // hardware threads per core (4)
	MCDRAMBytes     int64   // 16 GB high-bandwidth memory
	DDRBytes        int64   // 192 GB DDR4
	MCDRAMBwGBs     float64 // ~400 GB/s
	DDRBwGBs        float64 // ~100 GB/s
	ClusterModeUsed ClusterMode
	MemoryModeUsed  MemoryMode
}

// Phi7210 returns the JLSE node model (Intel Xeon Phi 7210).
func Phi7210() Node { return phiNode("Xeon Phi 7210") }

// Phi7230 returns the Theta node model (Intel Xeon Phi 7230).
func Phi7230() Node { return phiNode("Xeon Phi 7230") }

func phiNode(model string) Node {
	return Node{
		Model:           model,
		Cores:           64,
		HTPerCore:       4,
		MCDRAMBytes:     16 << 30,
		DDRBytes:        192 << 30,
		MCDRAMBwGBs:     400,
		DDRBwGBs:        100,
		ClusterModeUsed: Quadrant,
		MemoryModeUsed:  CacheMode,
	}
}

// HWThreads returns the node's hardware thread count (256).
func (n Node) HWThreads() int { return n.Cores * n.HTPerCore }

// perCoreThroughput returns the relative instruction throughput of one
// core running ht hardware threads, normalized to one thread = 1.0. KNL
// needs two threads per core to saturate both VPUs; the third and fourth
// add little (the paper: "the benefit is highest ... for two threads per
// core; for three and four ... some gain ... at a diminished level").
func perCoreThroughput(ht int) float64 {
	switch {
	case ht <= 0:
		return 0
	case ht == 1:
		return 1.0
	case ht == 2:
		return 1.55
	case ht == 3:
		return 1.65
	default:
		return 1.70
	}
}

// Placement describes how many cores a job's threads occupy and how many
// hardware threads share each occupied core.
type Placement struct {
	CoresUsed      int
	ThreadsPerCore int
}

// Place maps totalThreads hardware threads onto the node under the given
// affinity. Compact fills cores to 4 threads before moving on; scatter
// and balanced spread across all cores first. (For whole-node runs all
// policies coincide.)
func (n Node) Place(totalThreads int, aff Affinity) Placement {
	if totalThreads <= 0 {
		return Placement{}
	}
	if totalThreads > n.HWThreads() {
		totalThreads = n.HWThreads()
	}
	switch aff {
	case Compact:
		cores := (totalThreads + n.HTPerCore - 1) / n.HTPerCore
		return Placement{CoresUsed: cores, ThreadsPerCore: (totalThreads + cores - 1) / cores}
	default: // Scatter, Balanced, NoPin: spread over all cores first
		cores := totalThreads
		if cores > n.Cores {
			cores = n.Cores
		}
		return Placement{CoresUsed: cores, ThreadsPerCore: (totalThreads + cores - 1) / cores}
	}
}

// ComputeCapacity returns the node's effective compute power for
// totalThreads hardware threads under the affinity policy, in units of
// "single-thread cores" (one thread on an otherwise idle core = 1.0).
// Unpinned threads pay a migration/oversubscription penalty.
func (n Node) ComputeCapacity(totalThreads int, aff Affinity) float64 {
	p := n.Place(totalThreads, aff)
	if p.CoresUsed == 0 {
		return 0
	}
	cap := float64(p.CoresUsed) * perCoreThroughput(p.ThreadsPerCore)
	if aff == NoPin {
		cap *= 0.80 // OS migration and cache-refill losses without pinning
	}
	if aff == Balanced {
		cap *= 1.02 // slightly better L2 sharing than plain scatter
	}
	return cap
}

// MemoryPenalty returns a >= 1 multiplier on the compute time reflecting
// where the working set lives. memBoundFrac is the fraction of runtime
// that is memory-bandwidth-bound (the Fock build streams density/Fock
// blocks; the calibrated default lives in the simulator's cost model).
func (n Node) MemoryPenalty(workingSetBytes int64, memBoundFrac float64) float64 {
	bwRatio := n.MCDRAMBwGBs / n.DDRBwGBs // ~4
	slow := 1 + memBoundFrac*(bwRatio-1)  // fully DDR-resident penalty
	switch n.MemoryModeUsed {
	case FlatMCDRAM:
		// numactl --preferred semantics: allocations spill to DDR once
		// MCDRAM is full.
		if workingSetBytes <= n.MCDRAMBytes {
			return 1
		}
		frac := float64(n.MCDRAMBytes) / float64(workingSetBytes)
		return slow - (slow-1)*frac
	case FlatDDR:
		return slow
	default: // CacheMode: MCDRAM is a direct-mapped cache over DDR
		if workingSetBytes <= n.MCDRAMBytes {
			return 1.02 // near-MCDRAM speed; direct-mapped conflicts cost a little
		}
		// Partial caching: effectiveness decays with working set size.
		frac := float64(n.MCDRAMBytes) / float64(workingSetBytes)
		return slow - (slow-1.02)*frac
	}
}

// Fits reports whether a per-node working set is admissible in the
// current memory mode.
func (n Node) Fits(workingSetBytes int64) bool {
	if n.MemoryModeUsed == FlatMCDRAM || n.MemoryModeUsed == FlatDDR {
		// Flat modes expose both levels as allocatable memory.
		return workingSetBytes <= n.DDRBytes+n.MCDRAMBytes
	}
	// Cache mode: MCDRAM is cache, only DDR is allocatable.
	return workingSetBytes <= n.DDRBytes
}

// ClusterPenalties returns multipliers (>= 1) for the three runtime
// components (compute, shared-memory traffic, synchronization) under the
// node's cluster mode. Quadrant is the baseline the paper recommends;
// all-to-all loses tag-directory locality, which hurts shared-data
// algorithms most (Figure 5: the shared-Fock code falls behind MPI-only
// only in all-to-all mode); SNC-4 slightly hurts anything that is not
// NUMA-aware (the GAMESS codes are not).
func (n Node) ClusterPenalties() (compute, shared, sync float64) {
	switch n.ClusterModeUsed {
	case AllToAll:
		return 1.08, 3.20, 2.00
	case SNC4:
		return 1.02, 1.12, 1.08
	default: // Quadrant
		return 1.0, 1.0, 1.0
	}
}

// WithModes returns a copy of the node in the given cluster/memory mode.
func (n Node) WithModes(cm ClusterMode, mm MemoryMode) Node {
	n.ClusterModeUsed = cm
	n.MemoryModeUsed = mm
	return n
}

// String describes the node configuration.
func (n Node) String() string {
	return fmt.Sprintf("%s (%d cores, %s/%s)", n.Model, n.Cores, n.ClusterModeUsed, n.MemoryModeUsed)
}

// ClusterModes lists the modes swept by Figure 5.
var ClusterModes = []ClusterMode{AllToAll, Quadrant, SNC4}

// MemoryModes lists the memory modes swept by Figure 5.
var MemoryModes = []MemoryMode{CacheMode, FlatDDR, FlatMCDRAM}

// Affinities lists the policies swept by Figure 3.
var Affinities = []Affinity{Compact, Scatter, Balanced, NoPin}

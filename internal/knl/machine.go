package knl

// The multi-node machines of the paper's evaluation — the JLSE Xeon Phi
// cluster (Omni-Path) and the Theta Cray XC40 (Aries dragonfly) — together
// with interconnect cost models for the collective and one-sided
// operations the Hartree-Fock algorithms use.

import (
	"fmt"
	"math"
)

// Network is a latency/bandwidth interconnect model.
type Network struct {
	Name         string
	LatencySec   float64 // small-message one-way latency
	BandwidthBps float64 // per-link large-message bandwidth
	// RMALatencySec is the latency of a one-sided fetch-and-add, the DLB
	// primitive; slightly cheaper than a full message round trip on both
	// fabrics (HW-accelerated atomics).
	RMALatencySec float64
}

// Aries returns the Cray XC40 Aries dragonfly model (Theta).
func Aries() Network {
	return Network{
		Name:          "Aries dragonfly",
		LatencySec:    1.3e-6,
		BandwidthBps:  10e9,
		RMALatencySec: 0.9e-6,
	}
}

// OmniPath returns the Intel Omni-Path model (JLSE).
func OmniPath() Network {
	return Network{
		Name:          "Omni-Path",
		LatencySec:    1.0e-6,
		BandwidthBps:  12e9,
		RMALatencySec: 0.8e-6,
	}
}

// AllreduceTime models a Rabenseifner-style allreduce of bytes across
// ranks: 2 log2(P) latency terms plus 2 (P-1)/P of the payload through
// the per-node bandwidth.
func (n Network) AllreduceTime(bytes int64, ranks int) float64 {
	if ranks <= 1 {
		return 0
	}
	p := float64(ranks)
	steps := math.Ceil(math.Log2(p))
	return 2*steps*n.LatencySec + 2*(p-1)/p*float64(bytes)/n.BandwidthBps
}

// Machine is a named collection of identical KNL nodes on a network.
type Machine struct {
	Name     string
	MaxNodes int
	Node     Node
	Net      Network
}

// nodeMTBFHours is the mean time between fail-stop failures of a single
// node on both machines: two years, a common planning figure for
// commodity HPC nodes. Large jobs see failures far more often because
// node failure rates add.
const nodeMTBFHours = 2 * 365 * 24 // 17,520 h

// Theta returns the ALCF Theta model: 3,624 Intel Xeon Phi 7230 nodes on
// Aries (Table 1).
func Theta() Machine {
	return Machine{Name: "Theta (Cray XC40)", MaxNodes: 3624, Node: Phi7230(), Net: Aries()}
}

// JLSE returns the JLSE evaluation cluster: 10 Xeon Phi 7210 nodes on
// Omni-Path (Table 1).
func JLSE() Machine {
	return Machine{Name: "JLSE Xeon Phi cluster", MaxNodes: 10, Node: Phi7210(), Net: OmniPath()}
}

// SystemMTBFSec returns the mean time between failures, in seconds, of a
// job spanning the given node count: independent exponential node
// lifetimes compose to a system rate of nodes/MTBF_node. At Theta's full
// 3,624 nodes a 2-year per-node MTBF yields a failure roughly every
// 4.8 hours — the regime that motivates fault-tolerant runtimes.
func (m Machine) SystemMTBFSec(nodes int) float64 {
	if nodes < 1 {
		return math.Inf(1)
	}
	return nodeMTBFHours * 3600 / float64(nodes)
}

// Job is a requested run configuration.
type Job struct {
	Nodes          int
	RanksPerNode   int
	ThreadsPerRank int
	Affinity       Affinity
}

// TotalRanks returns the global MPI rank count.
func (j Job) TotalRanks() int { return j.Nodes * j.RanksPerNode }

// HWThreadsPerNode returns the hardware threads a node hosts under j.
func (j Job) HWThreadsPerNode() int { return j.RanksPerNode * j.ThreadsPerRank }

// Validate checks the job against the machine's limits.
func (m Machine) Validate(j Job) error {
	if j.Nodes < 1 || j.Nodes > m.MaxNodes {
		return fmt.Errorf("knl: %d nodes outside [1, %d] on %s", j.Nodes, m.MaxNodes, m.Name)
	}
	if j.RanksPerNode < 1 || j.ThreadsPerRank < 1 {
		return fmt.Errorf("knl: ranks per node and threads per rank must be >= 1")
	}
	if ht := j.HWThreadsPerNode(); ht > m.Node.HWThreads() {
		return fmt.Errorf("knl: %d hardware threads exceed the node's %d", ht, m.Node.HWThreads())
	}
	return nil
}

// WithModes returns a copy of the machine with its nodes reconfigured.
func (m Machine) WithModes(cm ClusterMode, mm MemoryMode) Machine {
	m.Node = m.Node.WithModes(cm, mm)
	return m
}

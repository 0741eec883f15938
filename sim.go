package repro

import (
	"repro/internal/knl"
	"repro/internal/simulate"
)

// This file exposes the discrete-event performance simulator through the
// facade: enough to rerun the paper's scaling studies (and variations) on
// the modeled Xeon Phi machines without importing internal packages.

// SimMachine names a modeled machine.
type SimMachine string

// The two machines of the paper's evaluation (Table 1).
const (
	MachineTheta SimMachine = "theta" // 3,624-node Cray XC40, Xeon Phi 7230
	MachineJLSE  SimMachine = "jlse"  // 10-node cluster, Xeon Phi 7210
)

func (m SimMachine) machine() knl.Machine {
	if m == MachineJLSE {
		return knl.JLSE()
	}
	return knl.Theta()
}

// SimPoint is one simulated Fock-build configuration result.
type SimPoint struct {
	Algorithm    Algorithm
	Nodes        int
	RanksPerNode int
	Threads      int
	Seconds      float64
	Feasible     bool
	Note         string
	MemGBPerNode float64
}

// SimSession caches workload profiles so successive simulations of the
// same chemical system are cheap.
type SimSession struct {
	cache *simulate.ProfileCache
}

// NewSimSession returns a simulation session with the calibrated default
// cost model.
func NewSimSession() *SimSession {
	return &SimSession{cache: simulate.NewProfileCache()}
}

// Simulate runs one simulated Fock build of a paper system ("0.5nm" ...
// "5.0nm") on the named machine. The MPI-only algorithm ignores threads
// (1 per rank) and may be memory-capped below ranksPerNode.
func (s *SimSession) Simulate(system string, machine SimMachine, alg Algorithm,
	nodes, ranksPerNode, threads int) (SimPoint, error) {
	p, err := s.cache.Get(system)
	if err != nil {
		return SimPoint{}, err
	}
	job := knl.Job{Nodes: nodes, RanksPerNode: ranksPerNode,
		ThreadsPerRank: threads, Affinity: knl.Compact}
	if alg == MPIOnly.Algorithm {
		job.ThreadsPerRank = 1
	}
	r := simulate.Simulate(p, simulate.Config{
		Machine: machine.machine(), Job: job, Algorithm: string(alg),
	})
	return SimPoint{
		Algorithm: alg, Nodes: nodes, RanksPerNode: r.RanksPerNodeUsed,
		Threads: job.ThreadsPerRank, Seconds: r.FockSec, Feasible: r.Feasible,
		Note: r.Reason, MemGBPerNode: float64(r.MemPerNodeBytes) / (1 << 30),
	}, nil
}

// SimulateModes runs one single-node simulated Fock build under a given
// KNL cluster mode ("all-to-all", "quadrant", "snc-4") and memory mode
// ("cache", "flat-ddr4", "flat-mcdram").
func (s *SimSession) SimulateModes(system string, alg Algorithm,
	clusterMode, memoryMode string) (SimPoint, error) {
	p, err := s.cache.Get(system)
	if err != nil {
		return SimPoint{}, err
	}
	m := knl.JLSE().WithModes(knl.ClusterMode(clusterMode), knl.MemoryMode(memoryMode))
	job := knl.Job{Nodes: 1, RanksPerNode: 4, ThreadsPerRank: 64, Affinity: knl.Compact}
	if alg == MPIOnly.Algorithm {
		job = knl.Job{Nodes: 1, RanksPerNode: 256, ThreadsPerRank: 1}
	}
	r := simulate.Simulate(p, simulate.Config{Machine: m, Job: job, Algorithm: string(alg)})
	return SimPoint{
		Algorithm: alg, Nodes: 1, RanksPerNode: r.RanksPerNodeUsed,
		Threads: job.ThreadsPerRank, Seconds: r.FockSec, Feasible: r.Feasible,
		Note: r.Reason, MemGBPerNode: float64(r.MemPerNodeBytes) / (1 << 30),
	}, nil
}

// KNLClusterModes lists the simulated cluster modes (Figure 5).
var KNLClusterModes = []string{"all-to-all", "quadrant", "snc-4"}

// KNLMemoryModes lists the simulated memory modes (Figure 5).
var KNLMemoryModes = []string{"cache", "flat-ddr4", "flat-mcdram"}

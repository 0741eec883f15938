package simulate

import (
	"math"

	"repro/internal/knl"
)

// Full-SCF time-to-solution model. The paper's benchmark metric is the
// Fock construction time ("TIME TO FORM FOCK"); a complete SCF iteration
// additionally diagonalizes the Fock matrix — an O(N^3) step every rank
// performs REDUNDANTLY in GAMESS (the matrix is replicated) — and updates
// the density. This model extends a simulated Fock build into a full SCF
// estimate, exposing the diagonalization wall the paper's related work
// (Chow et al.) identifies as the next bottleneck after Fock assembly.

// The non-Fock parts of an iteration.
const (
	// scfIterations to convergence; graphene-sheet HF typically needs
	// ~15-25 with DIIS.
	scfIterations = 20
	// diagFlopsPerCore is the effective eigensolver throughput of one KNL
	// core (scalar-heavy tridiagonalization; far below peak).
	diagFlopsPerCore = 1.5e9
)

// SCFEstimate breaks down a simulated full SCF run.
type SCFEstimate struct {
	Iterations   int
	FockSecEach  float64
	DiagSecEach  float64
	TotalSec     float64
	DiagFraction float64
}

// EstimateSCF extends one simulated Fock build into a full-SCF estimate.
// The diagonalization runs threaded within a rank but replicated across
// ranks (GAMESS semantics), so it stops scaling beyond one node.
func EstimateSCF(p *Profile, cfg Config) SCFEstimate {
	r := Simulate(p, cfg)
	n := float64(p.W.NBF)
	// Householder + QL: ~ (4/3 + 6) N^3 flops with the eigenvector
	// accumulation; use 8 N^3.
	flops := 8 * n * n * n
	// Per rank: the node's cores are shared by the node's ranks; assume
	// the diagonalization threads across the rank's share.
	coresPerRank := float64(cfg.Machine.Node.Cores) / float64(max(r.RanksPerNodeUsed, 1))
	diag := flops / (diagFlopsPerCore * math.Max(coresPerRank, 1))
	est := SCFEstimate{
		Iterations:  scfIterations,
		FockSecEach: r.FockSec,
		DiagSecEach: diag,
		TotalSec:    scfIterations * (r.FockSec + diag),
	}
	if est.TotalSec > 0 {
		est.DiagFraction = scfIterations * diag / est.TotalSec
	}
	return est
}

// --- System sweep (weak-scaling-style extension, not in the paper) ---

// SweepRow is one benchmark system at a fixed machine size.
type SweepRow struct {
	System        string
	NBF           int
	SigPairs      int
	TotalPairs    int
	Quartets      int64
	FockSec       float64
	DiagSecEach   float64
	QuartetGrowth float64 // quartets relative to the previous row
}

// RunSystemSweep runs the shared-Fock code on every Table 4 system at a
// fixed node count, exposing how Schwarz screening bends the O(N^4)
// quartet growth toward ~O(N^2) for extended systems — the sparsity the
// paper's Section 4.3 leverages with ij-prescreening.
func RunSystemSweep(pc *ProfileCache, nodes int) ([]SweepRow, error) {
	theta := knl.Theta()
	var rows []SweepRow
	var prev int64
	for _, system := range []string{"0.5nm", "1.0nm", "1.5nm", "2.0nm"} {
		p, err := pc.Get(system)
		if err != nil {
			return nil, err
		}
		cfg := Config{Machine: theta, Job: hybridJob(nodes), Algorithm: AlgSharedFock}
		est := EstimateSCF(p, cfg)
		row := SweepRow{
			System: system, NBF: p.W.NBF,
			SigPairs: len(p.Sig), TotalPairs: p.W.NumPairs(),
			Quartets: p.TotalQuartets, FockSec: est.FockSecEach,
			DiagSecEach: est.DiagSecEach,
		}
		if prev > 0 {
			row.QuartetGrowth = float64(p.TotalQuartets) / float64(prev)
		}
		prev = p.TotalQuartets
		rows = append(rows, row)
	}
	return rows, nil
}

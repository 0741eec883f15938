package simulate

import (
	"fmt"

	"repro/internal/knl"
)

// This file regenerates the paper's evaluation artifacts (Tables 2-3,
// Figures 3-7). Each Run* function returns structured rows; cmd/scaling
// renders them, once, as terminal text and CSV. The experiment index
// lives in DESIGN.md; paper-vs-measured comparisons in EXPERIMENTS.md.

// AlgorithmsOrder lists the three codes in the paper's presentation order.
var AlgorithmsOrder = []string{AlgMPIOnly, AlgPrivateFock, AlgSharedFock}

// DefaultTauPaper is the screening threshold used for the paper-scale
// simulated experiments (GAMESS's integral cutoff).
const DefaultTauPaper = 1e-9

// hybridJob returns the paper's hybrid configuration: 4 ranks per node,
// 64 threads per rank (full 256 hardware threads).
func hybridJob(nodes int) knl.Job {
	return knl.Job{Nodes: nodes, RanksPerNode: 4, ThreadsPerRank: 64, Affinity: knl.Compact}
}

// mpiJob returns the stock code's configuration: as many single-thread
// ranks as memory admits, requested at 256 (the simulator caps it).
func mpiJob(nodes int) knl.Job {
	return knl.Job{Nodes: nodes, RanksPerNode: 256, ThreadsPerRank: 1}
}

func jobFor(alg string, nodes int) knl.Job {
	if alg == AlgMPIOnly {
		return mpiJob(nodes)
	}
	return hybridJob(nodes)
}

// ProfileCache avoids re-deriving workload profiles, and re-running the
// Figure 7 sweep, across experiments.
type ProfileCache struct {
	profiles map[string]*Profile
	fig7     []Result // one per fig7Nodes entry; see fig7Sweep
}

// NewProfileCache returns an empty cache.
func NewProfileCache() *ProfileCache {
	return &ProfileCache{profiles: map[string]*Profile{}}
}

// Get builds (once) the profile of a named paper system.
func (pc *ProfileCache) Get(system string) (*Profile, error) {
	if p, ok := pc.profiles[system]; ok {
		return p, nil
	}
	w, err := PaperWorkload(system)
	if err != nil {
		return nil, err
	}
	p := NewProfile(w, DefaultTauPaper)
	pc.profiles[system] = p
	return p, nil
}

// --- Table 2: memory footprints ---

// Table2Ranks is the stock MPI code's compute ranks per node in Table 2.
const Table2Ranks = 256

// Table2Row is one benchmark system's memory footprints (GB).
type Table2Row struct {
	System  string
	Atoms   int
	BasisF  int
	MPIGB   float64 // stock code: Table2Ranks compute ranks + as many DDI data servers
	PrFGB   float64 // hybrid, 4 ranks x 64 threads
	ShFGB   float64 // hybrid, 4 ranks
	RatioPr float64
	RatioSh float64
}

// RunTable2 reproduces the paper's Table 2 with the eq. (3a)-(3c)
// accounting: the stock MPI code is charged its 256 compute processes
// PLUS the 256 DDI data-server processes the legacy one-sided layer
// spawns (Section 6.2), each with replicated matrices; the hybrids run
// 4 ranks per node.
func RunTable2() []Table2Row {
	systems := []struct {
		name   string
		atoms  int
		basisF int
	}{
		{"0.5nm", 44, 660}, {"1.0nm", 120, 1800}, {"1.5nm", 220, 3300},
		{"2.0nm", 356, 5340}, {"5.0nm", 2016, 30240},
	}
	const gb = float64(1 << 30)
	rows := make([]Table2Row, 0, len(systems))
	for _, s := range systems {
		// Stock code: data servers double the process count, each with an
		// 8 MiB runtime overhead.
		mpi := float64(2 * Table2Ranks * (RankBytes(AlgMPIOnly, s.basisF, 1) + 8<<20))
		pr := float64(4*RankBytes(AlgPrivateFock, s.basisF, 64)) +
			float64(BufferBytes(s.basisF, 6, 64))
		sh := float64(4*RankBytes(AlgSharedFock, s.basisF, 64)) +
			4*float64(BufferBytes(s.basisF, 6, 64))
		rows = append(rows, Table2Row{
			System: s.name, Atoms: s.atoms, BasisF: s.basisF,
			MPIGB: mpi / gb, PrFGB: pr / gb, ShFGB: sh / gb,
			RatioPr: mpi / pr, RatioSh: mpi / sh,
		})
	}
	return rows
}

// --- Table 3 / Figure 6: multi-node scaling, 2.0 nm ---

// ScalingRow is one node count of the multi-node experiment.
type ScalingRow struct {
	Nodes   int
	TimeSec map[string]float64
	EffPct  map[string]float64
	Ranks   map[string]int
}

// RunTable3 reproduces Table 3 and Figure 6: the 2.0 nm system on Theta
// from 4 to 512 nodes for all three codes, with parallel efficiency
// relative to 4 nodes.
func RunTable3(pc *ProfileCache) ([]ScalingRow, error) {
	p, err := pc.Get("2.0nm")
	if err != nil {
		return nil, err
	}
	theta := knl.Theta()
	nodeCounts := []int{4, 16, 64, 128, 256, 512}
	rows := make([]ScalingRow, 0, len(nodeCounts))
	base := map[string]float64{}
	for _, nodes := range nodeCounts {
		row := ScalingRow{Nodes: nodes,
			TimeSec: map[string]float64{}, EffPct: map[string]float64{}, Ranks: map[string]int{}}
		for _, alg := range AlgorithmsOrder {
			r := Simulate(p, Config{Machine: theta, Job: jobFor(alg, nodes), Algorithm: alg})
			row.TimeSec[alg] = r.FockSec
			row.Ranks[alg] = r.TotalRanks
			if nodes == nodeCounts[0] {
				base[alg] = r.FockSec * float64(nodes)
			}
			row.EffPct[alg] = base[alg] / (r.FockSec * float64(nodes)) * 100
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// --- Figure 4: single-node hardware-thread scaling, 1.0 nm ---

// Fig4Row is one hardware-thread count on a single node.
type Fig4Row struct {
	HWThreads int
	TimeSec   map[string]float64 // missing entry = configuration infeasible
}

// RunFig4 reproduces Figure 4: time to solution on one JLSE node versus
// hardware threads for the three codes (1.0 nm dataset). The MPI-only
// code runs as many single-thread ranks as the thread budget; the hybrids
// run 4 ranks x (threads/4). The MPI-only code is memory-capped at 128
// ranks, so its 256-thread point is missing, exactly as in the paper.
func RunFig4(pc *ProfileCache) ([]Fig4Row, error) {
	p, err := pc.Get("1.0nm")
	if err != nil {
		return nil, err
	}
	jlse := knl.JLSE()
	var rows []Fig4Row
	for _, ht := range []int{4, 8, 16, 32, 64, 128, 256} {
		row := Fig4Row{HWThreads: ht, TimeSec: map[string]float64{}}
		// MPI-only: ht ranks x 1 thread; simulator caps by memory.
		r := Simulate(p, Config{Machine: jlse,
			Job:       knl.Job{Nodes: 1, RanksPerNode: ht, ThreadsPerRank: 1},
			Algorithm: AlgMPIOnly})
		if r.Feasible && r.RanksPerNodeUsed == ht {
			row.TimeSec[AlgMPIOnly] = r.FockSec
		}
		// Hybrids: 4 ranks x ht/4 threads, balanced affinity (spread).
		if ht >= 4 {
			job := knl.Job{Nodes: 1, RanksPerNode: 4, ThreadsPerRank: ht / 4, Affinity: knl.Balanced}
			for _, alg := range []string{AlgPrivateFock, AlgSharedFock} {
				r := Simulate(p, Config{Machine: jlse, Job: job, Algorithm: alg})
				if r.Feasible {
					row.TimeSec[alg] = r.FockSec
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// --- Figure 3: thread affinity, shared-Fock, 1.0 nm ---

// Fig3Row is one thread count across affinity policies.
type Fig3Row struct {
	ThreadsPerRank int
	TimeSec        map[knl.Affinity]float64
}

// RunFig3 reproduces Figure 3: the shared-Fock code on one node in
// quad-cache mode, 4 MPI ranks, 1..64 threads per rank, across
// KMP_AFFINITY policies.
func RunFig3(pc *ProfileCache) ([]Fig3Row, error) {
	p, err := pc.Get("1.0nm")
	if err != nil {
		return nil, err
	}
	jlse := knl.JLSE()
	var rows []Fig3Row
	for _, t := range []int{1, 2, 4, 8, 16, 32, 64} {
		row := Fig3Row{ThreadsPerRank: t, TimeSec: map[knl.Affinity]float64{}}
		for _, aff := range knl.Affinities {
			r := Simulate(p, Config{Machine: jlse,
				Job:       knl.Job{Nodes: 1, RanksPerNode: 4, ThreadsPerRank: t, Affinity: aff},
				Algorithm: AlgSharedFock})
			row.TimeSec[aff] = r.FockSec
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// --- Figure 5: cluster x memory modes ---

// Fig5Row is one (cluster mode, memory mode) cell for one system.
type Fig5Row struct {
	System      string
	ClusterMode knl.ClusterMode
	MemoryMode  knl.MemoryMode
	TimeSec     map[string]float64 // per algorithm; missing = infeasible
}

// RunFig5 reproduces Figure 5: time to solution of the three codes on one
// node under every cluster/memory mode combination, for the 0.5 nm and
// 2.0 nm systems. Flat-MCDRAM cells are absent when the footprint exceeds
// the 16 GB MCDRAM (as they were unrunnable on the real machine).
func RunFig5(pc *ProfileCache) ([]Fig5Row, error) {
	var rows []Fig5Row
	for _, system := range []string{"0.5nm", "2.0nm"} {
		p, err := pc.Get(system)
		if err != nil {
			return nil, err
		}
		for _, cmode := range knl.ClusterModes {
			for _, mmode := range knl.MemoryModes {
				machine := knl.JLSE().WithModes(cmode, mmode)
				row := Fig5Row{System: system, ClusterMode: cmode, MemoryMode: mmode,
					TimeSec: map[string]float64{}}
				for _, alg := range AlgorithmsOrder {
					r := Simulate(p, Config{Machine: machine, Job: jobFor(alg, 1), Algorithm: alg})
					if r.Feasible {
						row.TimeSec[alg] = r.FockSec
					}
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// --- Figure 7: shared-Fock at scale, 5.0 nm ---

// Fig7Row is one node count of the large-system run.
type Fig7Row struct {
	Nodes   int
	Cores   int
	TimeSec float64
	EffPct  float64 // relative to the smallest node count
	MemGB   float64
}

// fig7Nodes are the Theta node counts of Figure 7.
var fig7Nodes = []int{512, 1024, 1536, 2048, 2500, 3000}

// fig7Sweep runs Figure 7's simulations once per cache: the shared-Fock
// code on the 5.0 nm system, 4 ranks x 64 threads per Theta node, at
// every fig7Nodes count. The failure and SDC models price the same runs.
func (pc *ProfileCache) fig7Sweep() ([]Result, error) {
	if pc.fig7 == nil {
		p, err := pc.Get("5.0nm")
		if err != nil {
			return nil, err
		}
		for _, nodes := range fig7Nodes {
			pc.fig7 = append(pc.fig7, Simulate(p,
				Config{Machine: knl.Theta(), Job: hybridJob(nodes), Algorithm: AlgSharedFock}))
		}
	}
	return pc.fig7, nil
}

// RunFig7 reproduces Figure 7: the shared-Fock code on the 5.0 nm system
// (30,240 basis functions) from 512 to 3,000 Theta nodes (192,000 cores),
// 4 ranks x 64 threads per node.
func RunFig7(pc *ProfileCache) ([]Fig7Row, error) {
	sweep, err := pc.fig7Sweep()
	if err != nil {
		return nil, err
	}
	var rows []Fig7Row
	var base float64
	for i, nodes := range fig7Nodes {
		r := sweep[i]
		if base == 0 {
			base = r.FockSec * float64(nodes)
		}
		rows = append(rows, Fig7Row{
			Nodes: nodes, Cores: nodes * 64, TimeSec: r.FockSec,
			EffPct: base / (r.FockSec * float64(nodes)) * 100,
			MemGB:  float64(r.MemPerNodeBytes) / (1 << 30),
		})
	}
	return rows, nil
}

// --- Ablations (EXP-V2): design-choice sweeps the paper motivates ---

// AblationRow is one configuration of an ablation sweep.
type AblationRow struct {
	Name    string
	TimeSec float64
}

// RunDLBContentionAblation sweeps the DLB contention coefficient for the
// MPI-only code at 512 nodes, isolating how much of the stock code's
// plateau the shared-counter contention explains.
func RunDLBContentionAblation(pc *ProfileCache) ([]AblationRow, error) {
	p, err := pc.Get("2.0nm")
	if err != nil {
		return nil, err
	}
	theta := knl.Theta()
	var rows []AblationRow
	for _, c := range []float64{-1, 1e-5, 1e-4, 1e-3} {
		cc := c
		name := fmt.Sprintf("contention=%.0e", c)
		if c < 0 {
			cc = 1e-12 // effectively off (0 selects the default)
			name = "contention=off"
		}
		r := Simulate(p, Config{Machine: theta, Job: mpiJob(512),
			Algorithm: AlgMPIOnly, DLBContention: cc})
		rows = append(rows, AblationRow{Name: name, TimeSec: r.FockSec})
	}
	return rows, nil
}

// RunGranularityAblation compares the three task-space granularities at a
// fixed machine size by reporting tasks per rank and the resulting time —
// the paper's central explanation for the shared-Fock code's win.
func RunGranularityAblation(pc *ProfileCache) ([]AblationRow, error) {
	p, err := pc.Get("2.0nm")
	if err != nil {
		return nil, err
	}
	theta := knl.Theta()
	var rows []AblationRow
	for _, alg := range AlgorithmsOrder {
		r := Simulate(p, Config{Machine: theta, Job: jobFor(alg, 512), Algorithm: alg})
		rows = append(rows, AblationRow{
			Name:    fmt.Sprintf("%s: %d tasks / %d ranks", alg, r.TasksTotal, r.TotalRanks),
			TimeSec: r.FockSec,
		})
	}
	return rows, nil
}

// BreakdownRow is one algorithm's simulated component decomposition.
type BreakdownRow struct {
	Algorithm string
	Nodes     int
	FockSec   float64
	// Component shares of the aggregate rank-time (percent).
	ComputePct, ScreenPct, DLBPct, SyncPct, ReducePct float64
}

// RunBreakdown decomposes each algorithm's simulated Fock build at the
// given node count into its mechanism components — the quantitative
// version of the paper's qualitative explanations (granularity, memory,
// synchronization).
func RunBreakdown(pc *ProfileCache, system string, nodes int) ([]BreakdownRow, error) {
	p, err := pc.Get(system)
	if err != nil {
		return nil, err
	}
	theta := knl.Theta()
	var rows []BreakdownRow
	for _, alg := range AlgorithmsOrder {
		r := Simulate(p, Config{Machine: theta, Job: jobFor(alg, nodes), Algorithm: alg})
		b := r.Breakdown
		total := b.ComputeSec + b.ScreenSec + b.DLBSec + b.SyncSec + b.ReduceSec
		if total <= 0 {
			total = 1
		}
		rows = append(rows, BreakdownRow{
			Algorithm: alg, Nodes: nodes, FockSec: r.FockSec,
			ComputePct: b.ComputeSec / total * 100,
			ScreenPct:  b.ScreenSec / total * 100,
			DLBPct:     b.DLBSec / total * 100,
			SyncPct:    b.SyncSec / total * 100,
			ReducePct:  b.ReduceSec / total * 100,
		})
	}
	return rows, nil
}

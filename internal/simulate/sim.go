package simulate

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/knl"
)

// Algorithm names accepted by the simulator (matching scf.Algorithm).
const (
	AlgMPIOnly     = "mpi-only"
	AlgPrivateFock = "private-fock"
	AlgSharedFock  = "shared-fock"
)

// DefaultFixedPerRankBytes is the replicated per-process runtime overhead
// (MPI/DDI bookkeeping, KMP stacks, small replicated arrays). Calibrated
// so the paper's two hard memory facts hold on a 192 GB node: 256
// MPI-only ranks fit at 0.5 nm but at most 128 fit at 1.0 nm
// (Section 6.1). See DESIGN.md.
const DefaultFixedPerRankBytes = int64(730) << 20

// sharedThreadContentionLog models the shared-Fock code's intra-node
// coherence cost: quartet time is scaled by
// (1 + sharedThreadContentionLog * log2(threads)).
const sharedThreadContentionLog = 0.05

// Config selects what to simulate.
type Config struct {
	Machine   knl.Machine
	Job       knl.Job
	Algorithm string
	// DLBContention adds rank-count-dependent service degradation to the
	// shared counter (models one-sided progress contention in DDI); the
	// effective per-grab service is tDLBService * (1 + ranks * DLBContention).
	// 0 selects the default 1e-4; the ablation's "off" row passes 1e-12.
	DLBContention float64
}

// Breakdown decomposes the simulated Fock-build time into components
// (aggregated critical-path estimates).
type Breakdown struct {
	ComputeSec float64 // quartet evaluation + Fock updates
	ScreenSec  float64 // Schwarz checks
	DLBSec     float64 // load balancer grabs (latency + queueing)
	SyncSec    float64 // thread barriers and flushes
	ReduceSec  float64 // final inter-rank allreduce
}

// Result is one simulated Fock build.
type Result struct {
	Algorithm        string
	FockSec          float64
	Feasible         bool
	Reason           string // why infeasible / capped
	RanksPerNodeUsed int
	TotalRanks       int
	MemPerNodeBytes  int64
	Breakdown        Breakdown
	TasksTotal       int
	QuartetSecTotal  float64
}

// rank state for the discrete-event DLB simulation.
type rankState struct {
	ready float64
	lastI int32
	id    int32
}

type rankHeap []rankState

func (h rankHeap) Len() int           { return len(h) }
func (h rankHeap) Less(a, b int) bool { return h[a].ready < h[b].ready }
func (h rankHeap) Swap(a, b int)      { h[a], h[b] = h[b], h[a] }
func (h *rankHeap) Push(x any)        { *h = append(*h, x.(rankState)) }
func (h *rankHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// MemoryPerNode returns the per-node footprint of an algorithm at a job
// shape: each rank's eq. (3a)-(3c) matrices plus its fixed runtime
// overhead.
func MemoryPerNode(alg string, nbf, ranksPerNode, threads int) int64 {
	return int64(ranksPerNode) * (RankBytes(alg, nbf, threads) + DefaultFixedPerRankBytes)
}

// RankBytes returns the paper's memory equations (3a)-(3c): the float64
// storage one rank of alg holds in the large N x N objects (density,
// Fock, overlap, one-electron Hamiltonian, MO coefficients). Small O(N)
// structures are excluded, as in the paper.
func RankBytes(alg string, nbf, threads int) int64 {
	n2 := int64(nbf) * int64(nbf) * 8
	switch alg {
	case AlgMPIOnly:
		// (3a) 5/2 N^2: every matrix replicated per rank, the symmetric
		// ones in GAMESS's packed triangular layout.
		return n2 * 5 / 2
	case AlgPrivateFock:
		// (3b) (2 + threads) N^2: the rank's shared read-only matrices
		// plus a private Fock replica per thread.
		return n2 * int64(2+threads)
	case AlgSharedFock:
		// (3c) 7/2 N^2: all large matrices shared; the N^2 beyond (3a) is
		// the full (unpacked) shared Fock plus the FI/FJ buffer block,
		// which BufferBytes states exactly.
		return n2 * 7 / 2
	default:
		panic("simulate: unknown algorithm " + alg)
	}
}

// BufferBytes returns the exact FI+FJ buffer storage of a shared-Fock rank
// (Algorithm 3 line 3): 2 buffers x threads x shellSize x N doubles.
func BufferBytes(nbf, shellSize, threads int) int64 {
	return 2 * int64(threads) * int64(shellSize) * int64(nbf) * 8
}

// capRanks reduces ranks-per-node (halving, floor 1) until the node
// footprint fits DDR capacity — the paper's central constraint on the
// MPI-only code. Returns the admissible ranks per node and the footprint.
func capRanks(alg string, nbf, rpn, threads int, node knl.Node) (int, int64) {
	for rpn > 1 {
		mem := MemoryPerNode(alg, nbf, rpn, threads)
		if node.Fits(mem) {
			return rpn, mem
		}
		rpn /= 2
	}
	return rpn, MemoryPerNode(alg, nbf, rpn, threads)
}

// Simulate runs one Fock build of the profile under the configuration.
func Simulate(p *Profile, cfg Config) Result {
	job := cfg.Job
	node := cfg.Machine.Node
	res := Result{Algorithm: cfg.Algorithm, QuartetSecTotal: p.TotalQuartetSec}

	if err := cfg.Machine.Validate(job); err != nil {
		res.Reason = err.Error()
		return res
	}

	// Memory admission, with the MPI-only rank cap.
	rpn, mem := capRanks(cfg.Algorithm, p.W.NBF, job.RanksPerNode, job.ThreadsPerRank, node)
	if !node.Fits(mem) {
		res.Reason = fmt.Sprintf("per-node footprint %.1f GB exceeds capacity", float64(mem)/(1<<30))
		res.MemPerNodeBytes = mem
		return res
	}
	if rpn != job.RanksPerNode {
		res.Reason = fmt.Sprintf("memory-capped to %d ranks/node", rpn)
	}
	job.RanksPerNode = rpn
	res.Feasible = true
	res.RanksPerNodeUsed = rpn
	res.MemPerNodeBytes = mem
	totalRanks := job.TotalRanks()
	res.TotalRanks = totalRanks

	threads := job.ThreadsPerRank
	aff := job.Affinity
	if aff == "" {
		aff = knl.Compact
	}
	if threads == 1 {
		// Single-threaded ranks are pinned one per domain
		// (I_MPI_PIN_DOMAIN): they spread across cores like scatter,
		// regardless of the thread-affinity setting.
		aff = knl.Scatter
	}

	// Per-rank compute power in single-thread core equivalents.
	nodeCap := node.ComputeCapacity(job.HWThreadsPerNode(), aff)
	rankPower := nodeCap / float64(rpn)
	if rankPower <= 0 {
		res.Feasible = false
		res.Reason = "no compute capacity"
		return res
	}

	// Penalty factors.
	compPen, sharedPen, syncPen := node.ClusterPenalties()
	memPen := node.MemoryPenalty(mem, memBoundFrac*memBoundScale(cfg.Algorithm))
	sharedFrac := sharedTrafficFrac(cfg.Algorithm)
	if cfg.Algorithm == AlgSharedFock {
		// Coherence traffic on the shared Fock weighs more for small
		// matrices (more threads colliding in fewer cache lines); this is
		// what lets the MPI-only code overtake shared-Fock in all-to-all
		// mode on the 0.5 nm system (paper Figure 5).
		if small := 1 - float64(p.W.NBF)/2000; small > 0 {
			sharedFrac += 0.35 * small
		}
	}
	quartetFactor := compPen * memPen * (1 + sharedFrac*(sharedPen-1))
	if cfg.Algorithm == AlgSharedFock && threads > 1 {
		quartetFactor *= 1 + sharedThreadContentionLog*math.Log2(float64(threads))
	}

	// DLB timings.
	dlbLat := tDLBLatencyNode
	if job.Nodes > 1 {
		dlbLat = cfg.Machine.Net.RMALatencySec
	}
	contention := cfg.DLBContention
	if contention == 0 {
		contention = 1e-4
	}
	dlbService := tDLBService * (1 + float64(totalRanks)*contention)

	barrier := tBarrierPerLog * math.Ceil(math.Log2(float64(threads)+1)) * syncPen

	switch cfg.Algorithm {
	case AlgPrivateFock:
		simulatePrivate(p, &res, job, rankPower, quartetFactor, barrier, dlbLat, dlbService, threads)
	default:
		simulatePairTasks(p, &res, job, rankPower, quartetFactor, barrier, dlbLat, dlbService, cfg.Algorithm)
	}

	// Final Fock reduction (gsumf): packed triangular doubles, staged as
	// an intra-node shared-memory pre-reduction over the node's ranks
	// followed by an inter-node allreduce among node leaders.
	bytes := int64(p.W.NBF) * int64(p.W.NBF+1) / 2 * 8
	intra := float64(rpn) * float64(bytes) / (node.DDRBwGBs * 1e9)
	reduce := intra
	if job.Nodes > 1 {
		reduce += cfg.Machine.Net.AllreduceTime(bytes, job.Nodes)
	}
	res.Breakdown.ReduceSec = reduce
	res.FockSec += reduce
	return res
}

// memBoundScale differentiates how strongly each algorithm feels the
// footprint-dependent memory penalty: the MPI-only code streams its many
// replicated matrices (full weight); the private-Fock code scatters into
// large but private, coherence-free replicas (light); shared-Fock's large
// objects are shared and mostly MCDRAM-resident (light).
func memBoundScale(alg string) float64 {
	switch alg {
	case AlgMPIOnly:
		return 1.0
	case AlgPrivateFock:
		return 0.15
	default:
		return 0.35
	}
}

// simulatePairTasks runs the DLB discrete-event simulation for the
// algorithms whose MPI task space is the combined ij pair index:
// Algorithm 1 (threads == 1 path) and Algorithm 3.
func simulatePairTasks(p *Profile, res *Result, job knl.Job,
	rankPower, quartetFactor, barrier, dlbLat, dlbService float64, alg string) {
	totalRanks := job.TotalRanks()
	nPairs := p.W.NumPairs()
	res.TasksTotal = nPairs

	h := make(rankHeap, totalRanks)
	for i := range h {
		h[i] = rankState{id: int32(i), lastI: -1}
	}
	heap.Init(&h)

	nbf := float64(p.W.NBF)
	shSz := float64(p.W.ShellSizeMax)
	flushTime := nbf * shSz * tFlushPerElem
	counterFree := 0.0
	sigPos := 0
	var bd Breakdown

	// Per-task fixed overhead of the hybrid path: master grab + 2 team
	// barriers + the kl-loop end barrier + flush barrier.
	taskSync := 0.0
	if alg == AlgSharedFock {
		taskSync = 4 * barrier
	}

	cheap := dlbLat + tPairCheck
	for ij := 0; ij < nPairs; ij++ {
		r := &h[0] // the rank that frees up first
		grab := math.Max(r.ready, counterFree)
		counterFree = grab + dlbService
		bd.DLBSec += (grab - r.ready) + dlbLat
		var dt float64
		if sigPos < len(p.Sig) && p.Sig[sigPos].Idx == ij {
			sp := &p.Sig[sigPos]
			compute := p.KLCost[sigPos] * quartetFactor / rankPower
			screen := float64(ChecksForPair(ij)) * tScreen / rankPower
			dt = dlbLat + compute + screen
			bd.ComputeSec += compute
			bd.ScreenSec += screen
			if alg == AlgSharedFock {
				fl := flushTime // FJ flush every task
				if r.lastI != int32(sp.I) {
					fl += flushTime + barrier // FI flush on i change
					r.lastI = int32(sp.I)
				}
				dt += taskSync + fl
				bd.SyncSec += taskSync + fl
			}
			sigPos++
		} else {
			dt = cheap
			if alg == AlgSharedFock {
				dt += 2 * barrier
				bd.SyncSec += 2 * barrier
			}
		}
		r.ready = grab + dt
		heap.Fix(&h, 0)
	}
	finish := 0.0
	for _, r := range h {
		if r.ready > finish {
			finish = r.ready
		}
	}
	res.FockSec = finish
	res.Breakdown = bd
}

// simulatePrivate runs Algorithm 2: the MPI task space is the single i
// shell index; OpenMP work-shares the collapsed (j,k) loops inside.
func simulatePrivate(p *Profile, res *Result, job knl.Job,
	rankPower, quartetFactor, barrier, dlbLat, dlbService float64, threads int) {
	totalRanks := job.TotalRanks()
	ns := p.W.NShells
	res.TasksTotal = ns

	h := make(rankHeap, totalRanks)
	for i := range h {
		h[i] = rankState{id: int32(i)}
	}
	heap.Init(&h)

	counterFree := 0.0
	var bd Breakdown
	const tChunkGrab = 60e-9 // dynamic-schedule chunk fetch

	for i := 0; i < ns; i++ {
		r := &h[0] // the rank that frees up first
		grab := math.Max(r.ready, counterFree)
		counterFree = grab + dlbService
		bd.DLBSec += (grab - r.ready) + dlbLat

		compute := p.TaskCostI[i] * quartetFactor / rankPower
		screen := float64(ChecksForI(i)) * tScreen / rankPower
		chunks := float64(i+1) * float64(i+1)
		chunkOv := chunks * tChunkGrab / float64(threads)
		sync := 3 * barrier
		dt := dlbLat + compute + screen + chunkOv + sync
		bd.ComputeSec += compute
		bd.ScreenSec += screen
		bd.SyncSec += sync + chunkOv

		r.ready = grab + dt
		heap.Fix(&h, 0)
	}
	finish := 0.0
	for _, r := range h {
		if r.ready > finish {
			finish = r.ready
		}
	}
	// End-of-build thread reduction of private Fock replicas.
	reduceThreads := float64(p.W.NBF) * float64(p.W.NBF) * tFlushPerElem
	finish += reduceThreads
	bd.SyncSec += reduceThreads
	res.FockSec = finish
	res.Breakdown = bd
}

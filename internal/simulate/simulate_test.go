package simulate

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"repro/internal/basis"
	"repro/internal/integrals"
	"repro/internal/knl"
	"repro/internal/linalg"
	"repro/internal/molecule"
)

// testCache is the one ProfileCache of the package's tests: profiles and
// the Figure 7 sweep are derived once per test binary, as they are once
// per `scaling` process.
var testCache = NewProfileCache()

func testProfile(t testing.TB, system string) *Profile {
	t.Helper()
	p, err := testCache.Get(system)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestShellClassOf(t *testing.T) {
	m := &molecule.Molecule{Name: "C"}
	m.AddAtomAngstrom("C", 0, 0, 0)
	b, err := basis.Build(m, "6-31g(d)")
	if err != nil {
		t.Fatal(err)
	}
	want := []ShellClass{ClassS, ClassL, ClassL, ClassD}
	for i := range b.Shells {
		if got := ClassOf(&b.Shells[i]); got != want[i] {
			t.Fatalf("shell %d class = %d want %d", i, got, want[i])
		}
	}
}

func TestPairClassOf(t *testing.T) {
	if PairClassOf(ClassS, ClassS) != 0 || PairClassOf(ClassL, ClassS) != 1 ||
		PairClassOf(ClassS, ClassL) != 1 || PairClassOf(ClassD, ClassD) != 5 {
		t.Fatal("pair class mapping wrong")
	}
	seen := map[PairClass]bool{}
	for a := ShellClass(0); a < numShellClasses; a++ {
		for b := ShellClass(0); b <= a; b++ {
			pc := PairClassOf(a, b)
			if int(pc) >= NumPairClasses || seen[pc] {
				t.Fatalf("pair class (%d,%d) -> %d invalid or duplicate", a, b, pc)
			}
			seen[pc] = true
		}
	}
}

func TestWorkloadMatchesTable4(t *testing.T) {
	for _, sys := range []struct {
		name          string
		shells, basis int
	}{{"0.5nm", 176, 660}, {"1.0nm", 480, 1800}} {
		w, err := PaperWorkload(sys.name)
		if err != nil {
			t.Fatal(err)
		}
		if w.NShells != sys.shells || w.NBF != sys.basis {
			t.Fatalf("%s: %d shells %d BF, want %d/%d", sys.name, w.NShells, w.NBF, sys.shells, sys.basis)
		}
	}
}

func TestSignificantPairsScreening(t *testing.T) {
	p := testProfile(t, "0.5nm")
	if len(p.Sig) == 0 || len(p.Sig) >= p.W.NumPairs() {
		t.Fatalf("sig pairs = %d of %d: screening ineffective or over-aggressive",
			len(p.Sig), p.W.NumPairs())
	}
	// Pairs must be sorted and canonical.
	for s := 1; s < len(p.Sig); s++ {
		if p.Sig[s].Idx <= p.Sig[s-1].Idx {
			t.Fatal("sig pairs not strictly sorted")
		}
	}
	for _, sp := range p.Sig {
		if sp.J > sp.I || linalg.PackedIndex(sp.I, sp.J) != sp.Idx {
			t.Fatalf("non-canonical sig pair %+v", sp)
		}
	}
}

func TestSurrogateScreeningTightensWithTau(t *testing.T) {
	w, err := PaperWorkload("0.5nm")
	if err != nil {
		t.Fatal(err)
	}
	loose := NewProfile(w, 1e-6)
	tight := NewProfile(w, 1e-12)
	if len(loose.Sig) >= len(tight.Sig) {
		t.Fatalf("tau=1e-6 kept %d pairs, tau=1e-12 kept %d", len(loose.Sig), len(tight.Sig))
	}
	if loose.TotalQuartets >= tight.TotalQuartets {
		t.Fatal("quartet count did not grow with tighter screening")
	}
}

func TestSurrogateAgainstExactSchwarz(t *testing.T) {
	// On a small all-carbon flake, the surrogate pair set must agree with
	// the exact Schwarz pair set within a reasonable factor (the surrogate
	// ignores prefactors, so compare counts at matched thresholds).
	mol := molecule.GrapheneFlake(8)
	b, err := basis.Build(mol, "6-31g(d)")
	if err != nil {
		t.Fatal(err)
	}
	eng := integrals.NewEngine(b)
	exact, err := NewExactProfile(eng, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := NewWorkload(mol, "6-31g(d)")
	sur := NewProfile(w, 1e-9)
	re := float64(len(exact.Sig))
	rs := float64(len(sur.Sig))
	if rs < 0.5*re || rs > 2.0*re {
		t.Fatalf("surrogate kept %v pairs, exact kept %v — more than 2x apart", rs, re)
	}
}

func TestChecksClosedForms(t *testing.T) {
	// ChecksForI must equal the brute-force sum of ChecksForPair.
	for i := 0; i < 40; i++ {
		var want int64
		for j := 0; j <= i; j++ {
			want += ChecksForPair(linalg.PackedIndex(i, j))
		}
		if got := ChecksForI(i); got != want {
			t.Fatalf("ChecksForI(%d) = %d want %d", i, got, want)
		}
	}
}

func TestProfileTaskAggregation(t *testing.T) {
	p := testProfile(t, "0.5nm")
	// Sum of per-i costs must equal total.
	var sumI float64
	var sumQ int64
	for i := range p.TaskCostI {
		sumI += p.TaskCostI[i]
		sumQ += p.TaskQuartetsI[i]
	}
	if math.Abs(sumI-p.TotalQuartetSec) > 1e-9*math.Abs(p.TotalQuartetSec) {
		t.Fatalf("per-i cost sum %v != total %v", sumI, p.TotalQuartetSec)
	}
	if sumQ != p.TotalQuartets {
		t.Fatalf("per-i quartets %d != total %d", sumQ, p.TotalQuartets)
	}
	// KL costs must be non-negative and monotone-ish in aggregate.
	for s, c := range p.KLCost {
		if c < 0 || p.KLQuartets[s] < 0 {
			t.Fatal("negative task cost")
		}
	}
}

func TestSimulateBasicInvariants(t *testing.T) {
	p := testProfile(t, "0.5nm")
	theta := knl.Theta()
	for _, alg := range AlgorithmsOrder {
		r := Simulate(p, Config{Machine: theta, Job: jobFor(alg, 2), Algorithm: alg})
		if !r.Feasible {
			t.Fatalf("%s infeasible: %s", alg, r.Reason)
		}
		if r.FockSec <= 0 {
			t.Fatalf("%s: nonpositive time", alg)
		}
		// The simulated time can never beat perfect scaling of the total
		// quartet work over every hardware thread.
		nodeCap := theta.Node.ComputeCapacity(256, knl.Compact)
		lower := p.TotalQuartetSec / (nodeCap * 2)
		if r.FockSec < lower*0.5 {
			t.Fatalf("%s: time %v below physical lower bound %v", alg, r.FockSec, lower)
		}
	}
}

func TestSimulateMoreNodesFaster(t *testing.T) {
	p := testProfile(t, "1.0nm")
	theta := knl.Theta()
	for _, alg := range []string{AlgMPIOnly, AlgSharedFock} {
		t4 := Simulate(p, Config{Machine: theta, Job: jobFor(alg, 4), Algorithm: alg}).FockSec
		t16 := Simulate(p, Config{Machine: theta, Job: jobFor(alg, 16), Algorithm: alg}).FockSec
		if t16 >= t4 {
			t.Fatalf("%s: 16 nodes (%v) not faster than 4 (%v)", alg, t16, t4)
		}
	}
}

func TestMemoryCapReproducesPaperFacts(t *testing.T) {
	// Section 6.1: 256 MPI-only ranks fit at 0.5 nm; only 128 at 1.0 nm.
	node := knl.Phi7210()
	rpn05, _ := capRanks(AlgMPIOnly, 660, 256, 1, node)
	if rpn05 != 256 {
		t.Fatalf("0.5nm capped to %d ranks, want 256", rpn05)
	}
	rpn10, _ := capRanks(AlgMPIOnly, 1800, 256, 1, node)
	if rpn10 != 128 {
		t.Fatalf("1.0nm capped to %d ranks, want 128", rpn10)
	}
}

func TestMemoryFootprints(t *testing.T) {
	// Table 2 shape: at N=5340 (2.0 nm), MPI-only with 256 ranks is about
	// 2.4x the private-Fock and 46x the shared-Fock node footprints.
	nbf := 5340
	mpiF := 256 * RankBytes(AlgMPIOnly, nbf, 1)
	prF := 4 * RankBytes(AlgPrivateFock, nbf, 64)
	shF := 4 * RankBytes(AlgSharedFock, nbf, 64)
	if mpiF <= prF || prF <= shF {
		t.Fatal("footprint ordering wrong")
	}
	ratioPr := float64(mpiF) / float64(prF)
	ratioSh := float64(mpiF) / float64(shF)
	if ratioPr < 2 || ratioPr > 3 {
		t.Fatalf("MPI/private ratio = %v (want ~2.4: 256*2.5 / (4*66))", ratioPr)
	}
	if ratioSh < 40 || ratioSh > 50 {
		t.Fatalf("MPI/shared ratio = %v (want ~45.7: 256*2.5 / (4*3.5))", ratioSh)
	}
	// MemoryPerNode is the same equations plus each rank's fixed overhead.
	if got, want := MemoryPerNode(AlgSharedFock, nbf, 4, 64), shF+4*DefaultFixedPerRankBytes; got != want {
		t.Fatalf("MemoryPerNode = %d, want %d", got, want)
	}
}

func TestBufferBytes(t *testing.T) {
	if got := BufferBytes(100, 6, 4); got != 2*4*6*100*8 {
		t.Fatalf("BufferBytes = %d", got)
	}
}

func TestTable2Shape(t *testing.T) {
	rows := RunTable2()
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !(r.MPIGB > r.PrFGB && r.PrFGB > r.ShFGB) {
			t.Fatalf("%s: footprint ordering broken: %+v", r.System, r)
		}
		if r.RatioSh < 50 {
			t.Fatalf("%s: shared-Fock reduction only %.0fx", r.System, r.RatioSh)
		}
	}
	// 5.0 nm hybrid must fit a Theta node (the paper ran it).
	last := rows[len(rows)-1]
	if last.ShFGB > 192 {
		t.Fatalf("5.0nm shared-Fock footprint %v GB does not fit a node", last.ShFGB)
	}
}

func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config simulation")
	}
	pc := testCache
	rows, err := RunTable3(pc)
	if err != nil {
		t.Fatal(err)
	}
	first, last := rows[0], rows[len(rows)-1]
	// Paper shape facts:
	// (1) hybrids beat MPI-only everywhere.
	for _, r := range rows {
		if r.TimeSec[AlgMPIOnly] <= r.TimeSec[AlgSharedFock] {
			t.Fatalf("nodes=%d: MPI-only not slower than shared-Fock", r.Nodes)
		}
	}
	// (2) private-Fock wins at small node counts...
	if first.TimeSec[AlgPrivateFock] >= first.TimeSec[AlgSharedFock] {
		t.Fatal("private-Fock should win at 4 nodes")
	}
	// (3) ...and shared-Fock wins at 512.
	if last.TimeSec[AlgSharedFock] >= last.TimeSec[AlgPrivateFock] {
		t.Fatal("shared-Fock should win at 512 nodes")
	}
	// (4) shared-Fock is several times faster than MPI-only at 512
	//     (paper: ~6x).
	if ratio := last.TimeSec[AlgMPIOnly] / last.TimeSec[AlgSharedFock]; ratio < 3 {
		t.Fatalf("shared-Fock speedup over MPI at 512 nodes = %.1fx, want >= 3x", ratio)
	}
	// (5) efficiency ordering at 512: shared >> mpi > private collapse.
	if !(last.EffPct[AlgSharedFock] > 70 && last.EffPct[AlgPrivateFock] < 30) {
		t.Fatalf("efficiency shape wrong: %+v", last.EffPct)
	}
}

func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config simulation")
	}
	pc := testCache
	rows, err := RunFig4(pc)
	if err != nil {
		t.Fatal(err)
	}
	last := rows[len(rows)-1]
	if _, ok := last.TimeSec[AlgMPIOnly]; ok {
		t.Fatal("MPI-only must be infeasible at 256 hardware threads (memory cap)")
	}
	// Private-Fock gives the best full-node time (paper Figure 4).
	if !(last.TimeSec[AlgPrivateFock] < last.TimeSec[AlgSharedFock]) {
		t.Fatal("private-Fock should be fastest on a full single node")
	}
	// Hybrids keep improving with more threads.
	for i := 1; i < len(rows); i++ {
		if pv, ok := rows[i].TimeSec[AlgPrivateFock]; ok {
			if prev, ok2 := rows[i-1].TimeSec[AlgPrivateFock]; ok2 && pv >= prev {
				t.Fatalf("private-Fock not improving at %d threads", rows[i].HWThreads)
			}
		}
	}
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config simulation")
	}
	pc := testCache
	rows, err := RunFig5(pc)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Private-Fock performs best in ALL cluster and memory modes
		// (paper Section 6.1).
		if !(r.TimeSec[AlgPrivateFock] <= r.TimeSec[AlgMPIOnly] &&
			r.TimeSec[AlgPrivateFock] <= r.TimeSec[AlgSharedFock]) {
			t.Fatalf("%s %s/%s: private-Fock not best: %+v", r.System, r.ClusterMode, r.MemoryMode, r.TimeSec)
		}
		if r.ClusterMode == knl.AllToAll && r.System == "0.5nm" {
			// In all-to-all mode the MPI-only code overtakes shared-Fock
			// on the small dataset.
			if r.TimeSec[AlgMPIOnly] > r.TimeSec[AlgSharedFock] {
				t.Fatalf("all-to-all 0.5nm: expected MPI-only <= shared-Fock: %+v", r.TimeSec)
			}
		}
		if r.ClusterMode == knl.Quadrant {
			// Outside all-to-all, shared-Fock significantly outperforms
			// the MPI-only code.
			if r.TimeSec[AlgSharedFock] >= r.TimeSec[AlgMPIOnly] {
				t.Fatalf("%s quadrant: shared-Fock not faster than MPI-only", r.System)
			}
		}
	}
}

func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config simulation")
	}
	pc := testCache
	rows, err := RunFig3(pc)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// No-pinning is never the best policy.
		best := math.Inf(1)
		for _, v := range r.TimeSec {
			best = math.Min(best, v)
		}
		if r.TimeSec[knl.NoPin] <= best && r.ThreadsPerRank > 1 {
			t.Fatalf("threads=%d: unpinned should not win", r.ThreadsPerRank)
		}
	}
	// At full saturation (64 threads x 4 ranks) the policies converge
	// within ~30%.
	last := rows[len(rows)-1]
	if last.TimeSec[knl.Compact] > 1.3*last.TimeSec[knl.Balanced] {
		t.Fatalf("policies should converge at full node: %+v", last.TimeSec)
	}
}

func TestDLBContentionAblationMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config simulation")
	}
	pc := testCache
	rows, err := RunDLBContentionAblation(pc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].TimeSec < rows[i-1].TimeSec-1e-9 {
			t.Fatalf("contention ablation not monotone: %+v", rows)
		}
	}
}

func TestSimulateInvalidJob(t *testing.T) {
	p := testProfile(t, "0.5nm")
	r := Simulate(p, Config{Machine: knl.JLSE(),
		Job:       knl.Job{Nodes: 99, RanksPerNode: 4, ThreadsPerRank: 64},
		Algorithm: AlgSharedFock})
	if r.Feasible {
		t.Fatal("99 nodes on 10-node JLSE should be rejected")
	}
}

func TestEstimateSCF(t *testing.T) {
	p := testProfile(t, "0.5nm")
	est := EstimateSCF(p, Config{Machine: knl.Theta(),
		Job: jobFor(AlgSharedFock, 4), Algorithm: AlgSharedFock})
	if est.TotalSec <= 0 || est.Iterations != 20 {
		t.Fatalf("estimate: %+v", est)
	}
	if est.TotalSec < float64(est.Iterations)*est.FockSecEach {
		t.Fatal("total below Fock-only time")
	}
	if est.DiagFraction <= 0 || est.DiagFraction >= 1 {
		t.Fatalf("diag fraction = %v", est.DiagFraction)
	}
}

func TestSystemSweepScreeningShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system profiles")
	}
	pc := testCache
	rows, err := RunSystemSweep(pc, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		r, prev := rows[i], rows[i-1]
		// Quartets grow strictly, but the growth must be far below the
		// unscreened O(N^4) ratio: e.g. 0.5nm -> 1.0nm triples N, so the
		// raw ratio would be ~81x; screening must cut it well below.
		if r.Quartets <= prev.Quartets {
			t.Fatal("quartets not growing")
		}
		rawRatio := math.Pow(float64(r.NBF)/float64(prev.NBF), 4)
		if r.QuartetGrowth >= rawRatio*0.8 {
			t.Fatalf("%s: screening ineffective: growth %.1f vs raw %.1f",
				r.System, r.QuartetGrowth, rawRatio)
		}
		// The significant-pair FRACTION must shrink with system size.
		if float64(r.SigPairs)/float64(r.TotalPairs) >=
			float64(prev.SigPairs)/float64(prev.TotalPairs) {
			t.Fatal("pair sparsity not improving with system size")
		}
	}
}

// TestGranularityAblation: one row per code, and the profile summary
// renders. (The tables of the artifacts are cmd/scaling's, and tested
// there.)
func TestGranularityAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config simulation")
	}
	pc := testCache
	gr, err := RunGranularityAblation(pc)
	if err != nil || len(gr) != 3 {
		t.Fatalf("granularity ablation: %v %v", gr, err)
	}
	if s := (&Profile{W: &Workload{Name: "x"}}).String(); len(s) == 0 {
		t.Fatal("Profile.String empty")
	}
}

func TestRunBreakdown(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config simulation")
	}
	pc := testCache
	rows, err := RunBreakdown(pc, "2.0nm", 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		sum := r.ComputePct + r.ScreenPct + r.DLBPct + r.SyncPct + r.ReducePct
		if math.Abs(sum-100) > 0.5 {
			t.Fatalf("%s: shares sum to %v", r.Algorithm, sum)
		}
		// Compute dominates every algorithm's aggregate time.
		if r.ComputePct < 50 {
			t.Fatalf("%s: compute share only %v%%", r.Algorithm, r.ComputePct)
		}
	}
}

// stdRankHeap runs rankHeap through container/heap, the reference the
// typed sift-down must match swap for swap.
type stdRankHeap []rankState

func (h stdRankHeap) Len() int           { return len(h) }
func (h stdRankHeap) Less(a, b int) bool { return h[a].ready < h[b].ready }
func (h stdRankHeap) Swap(a, b int)      { h[a], h[b] = h[b], h[a] }
func (h *stdRankHeap) Push(x any)        { *h = append(*h, x.(rankState)) }
func (h *stdRankHeap) Pop() any          { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

// TestFixTopMatchesContainerHeap: advancing the earliest rank and
// restoring the heap with fixTop leaves every rank where heap.Fix(h, 0)
// leaves it, ties included (ready times are drawn from a few values).
func TestFixTopMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, ranks := range []int{1, 2, 3, 7, 64} {
		got := make(rankHeap, ranks)
		want := make(stdRankHeap, ranks)
		for i := range got {
			got[i] = rankState{id: int32(i)}
			want[i] = got[i]
		}
		heap.Init(&want)
		for step := 0; step < 2000; step++ {
			dt := float64(rng.Intn(4))
			got[0].ready += dt
			want[0].ready += dt
			got.fixTop()
			heap.Fix(&want, 0)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%d ranks, step %d: slot %d holds %+v, container/heap %+v", ranks, step, i, got[i], want[i])
				}
			}
		}
	}
}

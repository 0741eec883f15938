package distmat

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/ddi"
	"repro/internal/integrity"
	"repro/internal/linalg"
	"repro/internal/mpi"
)

// maxAbsDiff returns the largest element-wise difference.
func maxAbsDiff(a, b *linalg.Matrix) float64 {
	worst := 0.0
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestABFTParityOwnersOffRank pins the survivability invariant: no data
// tile shares a rank with its row parity, so one rank death never takes
// a tile and its primary checksum together.
func TestABFTParityOwnersOffRank(t *testing.T) {
	for _, p := range []int{2, 4, 6, 12} {
		pr, pc := Factor2D(p)
		g := &Grid{Pr: pr, Pc: pc}
		nb := 7
		ab, _ := parityPlan(g, p, nb, 1)
		for gi, grp := range ab.groups[:nb*ab.kr] {
			for tile := grp.first; tile < grp.end; tile += grp.step {
				if g.OwnerOf(tile/nb, tile%nb) == grp.owner {
					t.Errorf("p=%d: row parity group %d on rank %d co-located with member (%d,%d)",
						p, gi, grp.owner, tile/nb, tile%nb)
				}
			}
		}
	}
}

// TestABFTParityMaintained runs a representative mix of mutating
// collectives on ABFT matrices and checks (a) the results match the
// plain-matrix reference bit for bit and (b) the audit stays clean —
// the transparent PutTile/AccTile parity maintenance tracks every op.
func TestABFTParityMaintained(t *testing.T) {
	n := 13
	a0 := randSym(n, 1)
	b0 := randDense(n, 2)
	onWorld(t, 4, func(g *Grid, dx *ddi.Context) {
		a, b, c := NewABFT(g, dx, n, 3), NewABFT(g, dx, n, 3), NewABFT(g, dx, n, 3)
		ra, rb, rc := New(g, dx, n, 3), New(g, dx, n, 3), New(g, dx, n, 3)
		if err := a.ScatterDense(a0); err != nil {
			t.Errorf("scatter: %v", err)
			return
		}
		if err := b.ScatterDense(b0); err != nil {
			t.Errorf("scatter: %v", err)
			return
		}
		ra.ScatterDense(a0)
		rb.ScatterDense(b0)
		for _, step := range []func(m, x, y *BlockMat){
			func(m, x, y *BlockMat) { MatMul(m, x, y) },
			func(m, x, y *BlockMat) { Axpby(m, x, 0.5, -1.25) },
			func(m, x, y *BlockMat) { Scale(m, 3) },
			func(m, x, y *BlockMat) { AddScaledIdentity(m, -0.75) },
			func(m, x, y *BlockMat) { AntiSymmetrize(m, x) },
			func(m, x, y *BlockMat) { Copy(m, y) },
		} {
			step(c, a, b)
			step(rc, ra, rb)
		}
		// Accumulate through the write-combiner too (the Fock path).
		acc := NewTileAccum(c, 4)
		racc := NewTileAccum(rc, 4)
		if dx.Comm.Rank() == 0 {
			for i := 0; i < n; i++ {
				acc.AddLower(i, i/2, 0.25*float64(i))
				racc.AddLower(i, i/2, 0.25*float64(i))
			}
		}
		acc.Flush()
		racc.Flush()
		dx.Comm.Barrier()

		st, err := c.AuditParity()
		if err != nil {
			t.Errorf("audit: %v", err)
			return
		}
		if st.Mismatches != 0 || st.RepairedTiles != 0 {
			t.Errorf("clean run audited dirty: %+v", st)
		}
		if st.Groups == 0 {
			t.Errorf("audit covered no groups")
		}
		got, err := c.GatherVerified()
		if err != nil {
			t.Errorf("gather: %v", err)
			return
		}
		want, _ := rc.GatherVerified()
		if d := maxAbsDiff(got, want); d != 0 {
			t.Errorf("ABFT result diverged from plain reference by %g", d)
		}
	})
}

// TestABFTAuditRepairsBitFlip injects a resident bit flip (raw write,
// bypassing parity — a memory error, not a message error) and checks the
// audit localizes and repairs it exactly.
func TestABFTAuditRepairsBitFlip(t *testing.T) {
	n := 12
	d0 := randSym(n, 7)
	onWorld(t, 4, func(g *Grid, dx *ddi.Context) {
		m := NewABFT(g, dx, n, 3)
		if err := m.ScatterDense(d0); err != nil {
			t.Errorf("scatter: %v", err)
			return
		}
		if dx.Comm.Rank() == 2 {
			buf := make([]float64, m.BS*m.BS)
			m.rawGetTile(1, 2, buf)
			integrity.FlipFloatBit(buf, 4, 52)
			m.rawPutTile(1, 2, buf)
		}
		dx.Comm.Barrier()
		st, err := m.AuditParity()
		if err != nil {
			t.Errorf("audit: %v", err)
			return
		}
		if st.Mismatches == 0 {
			t.Errorf("bit flip not detected: %+v", st)
		}
		if st.RepairedTiles != 1 {
			t.Errorf("RepairedTiles = %d, want 1", st.RepairedTiles)
		}
		got, err := m.GatherVerified()
		if err != nil {
			t.Errorf("gather: %v", err)
			return
		}
		if d := maxAbsDiff(got, d0); d > 1e-12 {
			t.Errorf("repaired matrix off by %g", d)
		}
		// The repaired matrix audits clean.
		st, err = m.AuditParity()
		if err != nil || st.Mismatches != 0 {
			t.Errorf("post-repair audit: %+v, %v", st, err)
		}
	})
}

// TestABFTAuditGroupsOneUnit: AuditStats.Groups counts the row groups
// the detection phase audited, whether or not the refresh phase ran — a
// 2-rank, 4x4-tile matrix reads 16 on a clean audit and on the audit
// that repairs a flip.
func TestABFTAuditGroupsOneUnit(t *testing.T) {
	const n, bs = 12, 3
	d0 := randSym(n, 7)
	onWorld(t, 2, func(g *Grid, dx *ddi.Context) {
		m := NewABFT(g, dx, n, bs)
		if err := m.ScatterDense(d0); err != nil {
			t.Errorf("scatter: %v", err)
			return
		}
		clean, err := m.AuditParity()
		if err != nil || clean.Mismatches != 0 {
			t.Errorf("clean audit: %+v, %v", clean, err)
			return
		}
		if dx.Comm.Rank() == 1 {
			buf := make([]float64, bs*bs)
			m.rawGetTile(1, 2, buf)
			integrity.FlipFloatBit(buf, 4, 52)
			m.rawPutTile(1, 2, buf)
		}
		dx.Comm.Barrier()
		fixed, err := m.AuditParity()
		if err != nil || fixed.RepairedTiles != 1 {
			t.Errorf("repairing audit: %+v, %v", fixed, err)
			return
		}
		if clean.Groups != 16 || fixed.Groups != 16 {
			t.Errorf("Groups = %d clean, %d repairing; want 16 both", clean.Groups, fixed.Groups)
		}
	})
}

// TestABFTStaleRowParityCountedOnce corrupts a row parity tile instead
// of a data tile: the audit finds one mismatched row group, flags no
// member (every column group is clean), repairs nothing, and the refresh
// phase rewrites the stale parity — counted once, not once per phase.
func TestABFTStaleRowParityCountedOnce(t *testing.T) {
	n := 12
	d0 := randSym(n, 7)
	onWorld(t, 4, func(g *Grid, dx *ddi.Context) {
		m := NewABFT(g, dx, n, 3)
		if err := m.ScatterDense(d0); err != nil {
			t.Errorf("scatter: %v", err)
			return
		}
		if dx.Comm.Rank() == 0 {
			gi := 1*m.ab.kr + 0 // row group (bi=1, k=0)
			p := m.ab.groups[gi]
			buf := make([]float64, m.BS*m.BS)
			m.parityTile(gi, buf)
			integrity.FlipFloatBit(buf, 4, 52)
			m.ab.wins[p.owner].Put(p.off, buf)
		}
		dx.Comm.Barrier()
		st, err := m.AuditParity()
		if err != nil {
			t.Errorf("audit: %v", err)
			return
		}
		if st.Mismatches != 1 || st.RepairedTiles != 0 || st.ParityRefreshes != 1 {
			t.Errorf("audit = %+v, want Mismatches 1, RepairedTiles 0, ParityRefreshes 1", st)
		}
		got, err := m.GatherVerified()
		if err != nil {
			t.Errorf("gather: %v", err)
			return
		}
		if d := maxAbsDiff(got, d0); d != 0 {
			t.Errorf("a stale parity changed the data by %g", d)
		}
		if st, err = m.AuditParity(); err != nil || st.Mismatches != 0 {
			t.Errorf("post-refresh audit: %+v, %v", st, err)
		}
	})
}

// TestSalvageReconstruct treats one rank as dead and resolves every tile
// through Salvage: surviving tiles read through, dead tiles peel out of
// parity, and the reconstruction count is positive.
func TestSalvageReconstruct(t *testing.T) {
	n := 14
	d0 := randDense(n, 11)
	for _, tc := range []struct {
		ranks int
		dead  []int
	}{
		{4, []int{1}},
		{4, []int{2}},
		// 3x2 grid losing a whole grid row (ranks 2 and 3): row groups of
		// that block row lose every member, so recovery has to peel one
		// member out of its column group before the row parity yields the
		// other — the recursive path. (Two deaths that take a tile AND
		// both its parities, e.g. {1,2} here, are beyond single parity by
		// construction.)
		{6, []int{2, 3}},
	} {
		onWorld(t, tc.ranks, func(g *Grid, dx *ddi.Context) {
			m := NewABFT(g, dx, n, 3)
			if err := m.ScatterDense(d0); err != nil {
				t.Errorf("scatter: %v", err)
				return
			}
			dx.Comm.Barrier()
			if dx.Comm.Rank() != 0 {
				return
			}
			s, err := NewSalvage(m, tc.dead)
			if err != nil {
				t.Errorf("NewSalvage: %v", err)
				return
			}
			out := linalg.NewSquare(n)
			buf := make([]float64, m.BS*m.BS)
			for bi := 0; bi < m.NB; bi++ {
				for bj := 0; bj < m.NB; bj++ {
					if err := s.Resolve(bi, bj, buf); err != nil {
						t.Errorf("ranks=%d dead=%v: resolve (%d,%d): %v", tc.ranks, tc.dead, bi, bj, err)
						return
					}
					for r := 0; r < m.BS && bi*m.BS+r < n; r++ {
						for c := 0; c < m.BS && bj*m.BS+c < n; c++ {
							out.Set(bi*m.BS+r, bj*m.BS+c, buf[r*m.BS+c])
						}
					}
				}
			}
			if d := maxAbsDiff(out, d0); d > 1e-12 {
				t.Errorf("ranks=%d dead=%v: salvaged matrix off by %g", tc.ranks, tc.dead, d)
			}
			if s.Reconstructed() == 0 {
				t.Errorf("ranks=%d dead=%v: no tiles reconstructed from parity", tc.ranks, tc.dead)
			}
		})
	}
}

// TestSalvageConcurrentResolve exercises the memoized resolver from many
// goroutines at once — the shape of the real resume, where every new
// rank resolves its owned tiles against one shared salvager.
func TestSalvageConcurrentResolve(t *testing.T) {
	n := 12
	d0 := randDense(n, 13)
	onWorld(t, 4, func(g *Grid, dx *ddi.Context) {
		m := NewABFT(g, dx, n, 3)
		if err := m.ScatterDense(d0); err != nil {
			t.Errorf("scatter: %v", err)
			return
		}
		dx.Comm.Barrier()
		if dx.Comm.Rank() != 0 {
			return
		}
		s, err := NewSalvage(m, []int{3})
		if err != nil {
			t.Errorf("NewSalvage: %v", err)
			return
		}
		var wg sync.WaitGroup
		errs := make([]error, m.NB*m.NB)
		for bi := 0; bi < m.NB; bi++ {
			for bj := 0; bj < m.NB; bj++ {
				wg.Add(1)
				go func(bi, bj int) {
					defer wg.Done()
					buf := make([]float64, m.BS*m.BS)
					errs[bi*m.NB+bj] = s.Resolve(bi, bj, buf)
				}(bi, bj)
			}
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("concurrent resolve tile %d: %v", i, err)
			}
		}
	})
}

// TestABFTBytesPerRank checks the overhead model: parity storage is
// positive and a modest fraction of data storage for a realistic shape,
// and on live worlds it equals the worst rank's parity storage in
// NewABFT, so the memory reports' ABFT columns count what is allocated.
func TestABFTBytesPerRank(t *testing.T) {
	parity, data := ABFTBytesPerRank(1000, 256, 0)
	if parity <= 0 || data <= 0 {
		t.Fatalf("ABFTBytesPerRank = %d, %d; want positive", parity, data)
	}
	if parity > data {
		t.Errorf("parity bytes %d exceed data bytes %d for 1000 bf / 256 ranks", parity, data)
	}
	for _, ranks := range []int{2, 4, 6, 12} {
		const n, bs = 14, 3
		var mu sync.Mutex
		var worst int64
		onWorld(t, ranks, func(g *Grid, dx *ddi.Context) {
			m := NewABFT(g, dx, n, bs)
			var live int64 // bytes of the parity window this rank allocated
			if m.ab.ownedParity > 0 {
				live = int64(len(m.ab.wins[dx.Comm.Rank()].Local())) * 8
			}
			mu.Lock()
			worst = max(worst, live)
			mu.Unlock()
		})
		if model, _ := ABFTBytesPerRank(n, ranks, bs); model != worst {
			t.Errorf("ranks=%d: ABFTBytesPerRank = %d, live worst rank stores %d", ranks, model, worst)
		}
	}
}

// TestPurifyChaosDeterminism is the chaos property test: SP2
// purification under duplicate/reorder message chaos must take the
// bitwise-identical branch sequence and produce the bitwise-identical
// density as a clean run — the distmat extension of the allreduce
// determinism invariant.
// TestABFTBytesPerRankIsSmall: the memory model walks the parity plan,
// whose groups are strided runs, not member lists — planning a
// 100,000-function matrix over 256 ranks (306,348 groups) allocates
// well under 16 MB.
func TestABFTBytesPerRankIsSmall(t *testing.T) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ABFTBytesPerRank(100000, 256, 0)
	runtime.ReadMemStats(&m1)
	got := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("ABFTBytesPerRank(100000, 256, 0) allocated %d bytes", got)
	if got >= 16<<20 {
		t.Errorf("ABFTBytesPerRank(100000, 256, 0) allocated %d bytes, want < 16 MB", got)
	}
}

func TestPurifyChaosDeterminism(t *testing.T) {
	n := 16
	nocc := 5
	f0 := randSym(n, 42)
	run := func(plan *mpi.FaultPlan) (string, *linalg.Matrix) {
		var branches string
		var dens *linalg.Matrix
		_, err := mpi.RunWithOptions(4, mpi.RunOptions{Fault: plan}, func(c *mpi.Comm) {
			g := NewGrid(c.Rank(), c.Size())
			dx := ddi.New(c)
			fp := New(g, dx, n, 0)
			dst := New(g, dx, n, 0)
			xsq := New(g, dx, n, 0)
			if err := fp.ScatterDense(f0); err != nil {
				t.Errorf("scatter: %v", err)
				return
			}
			st, err := Purify(dst, fp, xsq, nocc, 1e-12, 100)
			if err != nil {
				t.Errorf("purify: %v", err)
				return
			}
			d, gerr := dst.GatherVerified() // collective: every rank gathers
			if gerr != nil {
				t.Errorf("gather: %v", gerr)
				return
			}
			if c.Rank() == 0 {
				branches = st.Branches
				dens = d
			}
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return branches, dens
	}

	cleanBr, cleanD := run(nil)
	if cleanBr == "" || cleanD == nil {
		t.Fatalf("clean run produced no branches/density")
	}
	chaos := &mpi.FaultPlan{
		Duplicates: []mpi.Duplicate{{Rank: 1, After: 3, Copies: 2}},
		Reorders:   []mpi.Reorder{{Rank: 2, After: 5, Behind: 4}},
	}
	for trial := 0; trial < 2; trial++ {
		br, d := run(chaos)
		if br != cleanBr {
			t.Errorf("trial %d: branch sequence %q under chaos, want %q", trial, br, cleanBr)
		}
		for i := range d.Data {
			if d.Data[i] != cleanD.Data[i] {
				t.Errorf("trial %d: density diverged at element %d: %v vs %v",
					trial, i, d.Data[i], cleanD.Data[i])
				break
			}
		}
	}
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestABFTAuditCatchesInf writes +Inf raw into a resident tile: the
// fresh sums of its row and column groups are infinite against finite
// parities, which the audit must flag (an infinite difference is never
// within tolerance), localize and repair exactly from the row parity.
func TestABFTAuditCatchesInf(t *testing.T) {
	const n, bs = 12, 3
	d0 := randSym(n, 7)
	onWorld(t, 2, func(g *Grid, dx *ddi.Context) {
		m := NewABFT(g, dx, n, bs)
		if err := m.ScatterDense(d0); err != nil {
			t.Errorf("scatter: %v", err)
			return
		}
		if dx.Comm.Rank() == m.OwnerOf(2, 1) {
			buf := make([]float64, bs*bs)
			m.rawGetTile(2, 1, buf)
			buf[4] = math.Inf(1)
			m.rawPutTile(2, 1, buf)
		}
		dx.Comm.Barrier()
		st, err := m.AuditParity()
		if err != nil {
			t.Errorf("audit: %v", err)
			return
		}
		if st.Mismatches != 1 || st.RepairedTiles != 1 {
			t.Errorf("audit of an Inf tile = %+v, want Mismatches 1, RepairedTiles 1", st)
		}
		got, err := m.GatherVerified()
		if err != nil {
			t.Errorf("gather: %v", err)
			return
		}
		if d := maxAbsDiff(got, d0); d != 0 {
			t.Errorf("repaired matrix off by %g, want exact", d)
		}
		if st, err = m.AuditParity(); err != nil || st.Mismatches != 0 {
			t.Errorf("post-repair audit: %+v, %v", st, err)
		}
	})
}

// TestABFTLinearOpCarriesSourceParity flips a bit in a source tile after
// its parity was set, then runs a linear op into another ABFT matrix. The
// op carries the source's (clean) parity into the destination, not the
// corrupted tile's, so the destination's audit localizes the flipped
// tile and repairs it back to the clean result.
func TestABFTLinearOpCarriesSourceParity(t *testing.T) {
	const n, bs = 12, 3
	x0, y0 := randSym(n, 7), randDense(n, 8)
	for _, tc := range []struct {
		name string
		op   func(dst, src *BlockMat)
	}{
		{"Copy", func(dst, src *BlockMat) { Copy(dst, src) }},
		{"Axpby", func(dst, src *BlockMat) { Axpby(dst, src, 0.5, -1.25) }},
	} {
		onWorld(t, 4, func(g *Grid, dx *ddi.Context) {
			src, dst := NewABFT(g, dx, n, bs), NewABFT(g, dx, n, bs)
			rsrc, rdst := New(g, dx, n, bs), New(g, dx, n, bs)
			for _, s := range []struct {
				m *BlockMat
				d *linalg.Matrix
			}{{src, x0}, {dst, y0}, {rsrc, x0}, {rdst, y0}} {
				if err := s.m.ScatterDense(s.d); err != nil {
					t.Errorf("scatter: %v", err)
					return
				}
			}
			if dx.Comm.Rank() == src.OwnerOf(1, 2) {
				buf := make([]float64, bs*bs)
				src.rawGetTile(1, 2, buf)
				integrity.FlipFloatBit(buf, 4, 52)
				src.rawPutTile(1, 2, buf)
			}
			dx.Comm.Barrier()
			tc.op(dst, src)
			tc.op(rdst, rsrc)
			st, err := dst.AuditParity()
			if err != nil {
				t.Errorf("%s: audit: %v", tc.name, err)
				return
			}
			if st.Mismatches != 1 || st.RepairedTiles != 1 {
				t.Errorf("%s: destination audit = %+v, want Mismatches 1, RepairedTiles 1", tc.name, st)
			}
			got, err := dst.GatherVerified()
			if err != nil {
				t.Errorf("%s: gather: %v", tc.name, err)
				return
			}
			want, _ := rdst.GatherVerified()
			if d := maxAbsDiff(got, want); d > 1e-12 {
				t.Errorf("%s: repaired destination off the clean result by %g", tc.name, d)
			}
		})
	}
}

// TestABFTAuditAllocations: a clean audit reads member and parity tiles
// in place or into the matrix's own scratch, so after its first call it
// allocates less than one tile per audit (the density workload's shape:
// n = 256 on 2 ranks, 64-row tiles). Both ranks' allocations count.
func TestABFTAuditAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings are not held under -race")
	}
	const n, audits = 256, 50
	fp := gappedSym(n, 128, 1)
	var before, after runtime.MemStats
	var tile uint64
	onWorld(t, 2, func(g *Grid, dx *ddi.Context) {
		m := NewABFT(g, dx, n, 0)
		if err := m.ScatterDense(fp); err != nil {
			t.Errorf("scatter: %v", err)
			return
		}
		if _, err := m.AuditParity(); err != nil {
			t.Errorf("audit: %v", err)
			return
		}
		dx.Comm.Barrier()
		if dx.Comm.Rank() == 0 {
			tile = uint64(m.BS) * uint64(m.BS) * 8
			runtime.ReadMemStats(&before)
		}
		dx.Comm.Barrier()
		for range audits {
			if st, err := m.AuditParity(); err != nil || st.Mismatches != 0 {
				t.Errorf("audit: %+v, %v", st, err)
				return
			}
		}
		dx.Comm.Barrier()
		if dx.Comm.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
		dx.Comm.Barrier()
	})
	per := (after.TotalAlloc - before.TotalAlloc) / audits
	t.Logf("%d bytes per clean audit (one tile is %d)", per, tile)
	if per >= tile {
		t.Errorf("a clean audit allocates %d bytes, want < one tile (%d)", per, tile)
	}
}

// TestParityMismatchBodiesAgree: every parityMismatch body the host's
// CPUID probe reports answers as the Go loop does — on clean random
// tiles, on drift spread across the tolerance, with one mismatch planted
// at each position, and with a NaN or an infinity at each position of
// either operand. Lengths off the vector widths exercise the Go tail.
func TestParityMismatchBodiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type pair struct {
		name          string
		fresh, stored []float64
	}
	var cases []pair
	for _, n := range []int{1, 7, 8, 15, 16, 17, 40, 64 * 64} {
		fresh := make([]float64, n)
		for i := range fresh {
			fresh[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
		clean := make([]float64, n)
		edge := make([]float64, n)
		for i, f := range fresh {
			bound := abftAbsTol + abftRelTol*math.Abs(f)
			clean[i] = f + 0.5*bound*(2*rng.Float64()-1)
			edge[i] = f + bound*(1+1e-3*(2*rng.Float64()-1)) // either side of the bound
		}
		cases = append(cases, pair{"clean", fresh, clean})
		for i := range edge { // one element near its bound, the rest clean
			one := append([]float64(nil), clean...)
			one[i] = edge[i]
			cases = append(cases, pair{"edge", fresh, one})
		}
		if n > 64 {
			continue // every position of the short tiles is enough
		}
		for i := range fresh {
			for _, v := range []float64{fresh[i] + 1e-6*(1+math.Abs(fresh[i])), math.NaN(), math.Inf(1), math.Inf(-1)} {
				bad := append([]float64(nil), clean...)
				bad[i] = v
				cases = append(cases, pair{"stored", fresh, bad}, pair{"fresh", bad, clean})
			}
			both := append([]float64(nil), clean...)
			both[i] = math.Inf(1)
			cases = append(cases, pair{"both inf", both, both})
		}
	}
	for _, name := range []string{"go", "avx", "avx512"} {
		var f func(fresh, stored []float64) bool
		for _, b := range mismatchBodies {
			if b.name == name {
				f = b.f
			}
		}
		t.Run(name, func(t *testing.T) {
			if f == nil {
				t.Skipf("the CPUID probe reports no %s body on this host", name)
			}
			mismatches := 0
			for _, c := range cases {
				want := mismatchGo(c.fresh, c.stored)
				if got := f(c.fresh, c.stored); got != want {
					t.Fatalf("%s, n = %d: %s body says %v, Go loop %v", c.name, len(c.fresh), name, got, want)
				}
				if want {
					mismatches++
				}
			}
			if mismatches == 0 || mismatches == len(cases) {
				t.Fatalf("%d of %d cases mismatch: the cases do not test both answers", mismatches, len(cases))
			}
		})
	}
}

// BenchmarkParityMismatch times each parityMismatch body on a clean
// 64x64 tile, the audit's common case (every element is read).
func BenchmarkParityMismatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	fresh, stored := make([]float64, 64*64), make([]float64, 64*64)
	for i := range fresh {
		fresh[i] = rng.NormFloat64()
		stored[i] = fresh[i] * (1 + 1e-12)
	}
	for _, body := range mismatchBodies {
		b.Run(body.name, func(b *testing.B) {
			b.SetBytes(int64(16 * len(fresh)))
			for b.Loop() {
				if body.f(fresh, stored) {
					b.Fatal("a clean tile mismatched")
				}
			}
		})
	}
}

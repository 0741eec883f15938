package distmat

import (
	"math"
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
			for _, tile := range grp.members {
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
			dx.Comm.WinPut(m.abWinName(p.owner), p.off, buf)
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
				live = int64(len(dx.Comm.WinShared(m.abWinName(dx.Comm.Rank())))) * 8
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

package fock

import (
	"testing"

	"repro/internal/basis"
	"repro/internal/ddi"
	"repro/internal/distmat"
	"repro/internal/integrals"
	"repro/internal/integrals/oracle"
	"repro/internal/linalg"
	"repro/internal/molecule"
	"repro/internal/mpi"
)

// tiledSetup builds the water/STO-3G engine and a deterministic fake
// density (symmetric, diagonally dominant) shared by the tiled tests.
func tiledSetup(t *testing.T) (*integrals.Engine, *integrals.Schwarz, *linalg.Matrix) {
	t.Helper()
	b, err := basis.Build(molecule.Water(), "sto-3g")
	if err != nil {
		t.Fatalf("basis: %v", err)
	}
	eng := integrals.NewEngine(b)
	sch := integrals.ComputeSchwarz(eng)
	n := b.NumBF
	d := linalg.NewSquare(n)
	for i := 0; i < n; i++ {
		d.Set(i, i, 1+0.1*float64(i))
		for j := 0; j < i; j++ {
			v := 0.01 * float64(i+j)
			d.Set(i, j, v)
			d.Set(j, i, v)
		}
	}
	return eng, sch, d
}

// TestTiledBuildMatchesSerial: the distributed build over tiles must
// reproduce the serial replicated Fock to summation-order roundoff, for
// several rank counts and tile edges (including tiles that straddle
// shell boundaries).
func TestTiledBuildMatchesSerial(t *testing.T) {
	eng, sch, d := tiledSetup(t)
	want, serialStats := serialBuild(eng, sch, d, DefaultTau)
	n := eng.Basis.NumBF

	for _, tc := range []struct{ ranks, bs int }{{1, 3}, {2, 2}, {4, 3}, {4, 1}} {
		var totalComputed int64
		err := mpi.Run(tc.ranks, func(c *mpi.Comm) {
			dx := ddi.New(c)
			g := distmat.NewGrid(c.Rank(), c.Size())
			dd := distmat.New(g, dx, n, tc.bs)
			df := distmat.New(g, dx, n, tc.bs)
			if err := dd.ScatterDense(d); err != nil {
				t.Fatalf("scatter: %v", err)
			}
			df.Zero()
			reader := distmat.NewTileReader(dd, 6)
			accum := distmat.NewTileAccum(df, 6)
			_, stats := TiledBuild(dx, eng, sch, []*distmat.TileAccum{accum}, Config{Quartets: oracle.New(eng.Basis)}).Build(RHF(FromTiles(reader)))
			distmat.UnfoldLower(df)
			computed := dx.GSumI(stats.QuartetsComputed)
			// Sum cache misses globally: the dynamic balancer may hand one
			// rank nearly all pairs, so per-rank counters can be zero.
			misses := dx.GSumI(reader.Misses)
			got, gerr := df.GatherVerified()
			if gerr != nil {
				t.Fatalf("gather: %v", gerr)
			}
			if c.Rank() == 0 {
				totalComputed = computed
				if diff := got.MaxAbsDiff(want); diff > 1e-11 {
					t.Errorf("ranks=%d bs=%d: tiled Fock differs from serial by %g",
						tc.ranks, tc.bs, diff)
				}
				if misses == 0 {
					t.Errorf("ranks=%d bs=%d: no rank ever fetched a tile", tc.ranks, tc.bs)
				}
			}
		})
		if err != nil {
			t.Fatalf("mpi.Run: %v", err)
		}
		if totalComputed != serialStats.QuartetsComputed {
			t.Errorf("ranks=%d bs=%d: %d quartets computed across ranks, serial computed %d",
				tc.ranks, tc.bs, totalComputed, serialStats.QuartetsComputed)
		}
	}
}

// TestTiledBuildBoundedWorkingSet verifies the memory contract: the
// reader and accumulator never exceed their tile budgets even when those
// budgets are far below the full matrix.
func TestTiledBuildBoundedWorkingSet(t *testing.T) {
	eng, sch, d := tiledSetup(t)
	n := eng.Basis.NumBF
	const capTiles = 4
	err := mpi.Run(2, func(c *mpi.Comm) {
		dx := ddi.New(c)
		g := distmat.NewGrid(c.Rank(), c.Size())
		dd := distmat.New(g, dx, n, 2)
		df := distmat.New(g, dx, n, 2)
		if err := dd.ScatterDense(d); err != nil {
			t.Fatalf("scatter: %v", err)
		}
		df.Zero()
		reader := distmat.NewTileReader(dd, capTiles)
		accum := distmat.NewTileAccum(df, capTiles)
		TiledBuild(dx, eng, sch, []*distmat.TileAccum{accum}, Config{Quartets: oracle.New(eng.Basis)}).Build(RHF(FromTiles(reader)))
		distmat.UnfoldLower(df)
		budget := int64(capTiles * 2 * 2 * 8)
		if reader.PeakBytes() > budget {
			t.Errorf("reader peak %d bytes exceeds budget %d", reader.PeakBytes(), budget)
		}
		if accum.PeakBytes() > budget {
			t.Errorf("accumulator peak %d bytes exceeds budget %d", accum.PeakBytes(), budget)
		}
		// Global sum: the dynamic balancer may starve one rank entirely.
		if spills := dx.GSumI(accum.Spills); spills == 0 && dx.Comm.Rank() == 0 {
			t.Errorf("a %d-tile budget over a %d-block matrix should spill", capTiles, df.NB)
		}
	})
	if err != nil {
		t.Fatalf("mpi.Run: %v", err)
	}
}

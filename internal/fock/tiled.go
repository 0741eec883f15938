package fock

import (
	"repro/internal/ddi"
	"repro/internal/distmat"
	"repro/internal/integrals"
)

// TiledBuild is the distributed-data Fock build: Algorithm 1's dynamic
// ij-pair distribution, but with NO replicated matrices. The channel
// densities are read through bounded TileReaders over distributed D
// matrices and channel c's contributions are write-combined into a
// distributed F through out[c]; the per-rank working set is O(cache
// capacity) tiles instead of O(N^2), which is what lets systems past the
// MCDRAM wall run at all.
//
// The caller must Zero the matrix under each accumulator before the
// build and run distmat.UnfoldLower on it afterwards (contributions land
// in the lower triangle only, like every builder in this package). The
// closing barrier orders the final accumulator flush of every rank
// before any rank's unfold reads the tiles.
//
// The build distributes over MPI ranks only (no OpenMP team): the
// hybrid threading of Algorithms 2-3 assumes a node-shared density and
// Fock, which is exactly the replication this path removes.
func TiledBuild(dx *ddi.Context, eng *integrals.Engine, sch *integrals.Schwarz,
	chans []Channel, out []*distmat.TileAccum, cfg Config) Stats {
	w := newWalker(dx, eng, sch, cfg)
	w.chans = bind(chans, func(c int) sink { return tileSink{out[c]} })
	// No replicated accumulator exists here, so a scheduled corruption
	// lands in the ERI scratch: the hook covers the staged tile path
	// through its inputs.
	w.dlbPairs(&w.buf)
	for _, f := range out {
		f.Flush()
	}
	dx.Comm.Barrier()
	return w.st
}

// FromTiles is the Density of a distributed matrix read through a
// bounded tile cache.
func FromTiles(r *distmat.TileReader) Density {
	return func(x0, nx, y0, ny int, dst []float64) {
		for a := 0; a < nx; a++ {
			row := dst[a*ny : a*ny+ny]
			for b := range row {
				row[b] = r.At(x0+a, y0+b)
			}
		}
	}
}

// tileSink lands a channel's updates in a distributed F through its
// write-combining accumulator, skipping zeros.
type tileSink struct{ f *distmat.TileAccum }

func (s tileSink) addBlock(_, x0, nx, y0, ny int, scale float64, blk []float64) {
	for r := 0; r < nx; r++ {
		for c, v := range blk[r*ny : r*ny+ny] {
			if v != 0 {
				s.f.AddLower(x0+r, y0+c, scale*v)
			}
		}
	}
}

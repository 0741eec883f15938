package fock

import (
	"repro/internal/ddi"
	"repro/internal/distmat"
	"repro/internal/integrals"
	"repro/internal/linalg"
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
// build and run distmat.UnfoldLower on it afterwards (the sink folds
// every contribution into the lower triangle). The closing barrier
// orders the final accumulator flush of every rank before any rank's
// unfold reads the tiles.
//
// The build distributes over MPI ranks only (no OpenMP team): the
// hybrid threading of Algorithms 2-3 assumes a node-shared density and
// Fock, which is exactly the replication this path removes. Build
// returns no matrices: channel c's result is in out[c]'s matrix.
func TiledBuild(dx *ddi.Context, eng *integrals.Engine, sch *integrals.Schwarz,
	out []*distmat.TileAccum, cfg Config) *Builder {
	b := newBuilder(dx, eng, cfg.Quartets, sch, DefaultTau, 1)
	w := &b.lanes[0]
	b.bind = func(int) {
		for c := range w.chans {
			w.chans[c].out = newTileSink(b.lay, out[c])
		}
	}
	// No replicated accumulator exists here, so a scheduled corruption
	// lands in the ERI scratch: the hook covers the staged tile path
	// through its inputs.
	b.walk = func() { w.dlbPairs(&w.buf) }
	b.close = func() []*linalg.Matrix {
		for _, f := range out {
			f.Flush()
		}
		dx.Comm.Barrier()
		return nil
	}
	return b
}

// FromTiles is the Density of a distributed matrix read through a
// bounded tile cache: the digest copies each block it reads out of it.
func FromTiles(r *distmat.TileReader) Density {
	return Density{read: func(x0, nx, y0, ny int, dst []float64) {
		for a := 0; a < nx; a++ {
			row := dst[a*ny : a*ny+ny]
			for b := range row {
				row[b] = r.At(x0+a, y0+b)
			}
		}
	}}
}

// tileSink lands a channel's updates in a distributed F through its
// write-combining accumulator. It hands the digest a zeroed scratch block
// per role and, when the quartet is done, folds each into the canonical
// lower slots, doubling where x == y (finalize's F = G + Gᵀ, one element
// at a time) and skipping zeros.
type tileSink struct {
	f      *distmat.TileAccum
	lay    *blocking
	blk    [numRoles][]float64
	shells [numRoles][2]int
	handed [numRoles]bool
}

func newTileSink(lay *blocking, f *distmat.TileAccum) *tileSink {
	s := &tileSink{f: f, lay: lay}
	for r := range s.blk {
		s.blk[r] = make([]float64, lay.maxNum*lay.maxNum)
	}
	return s
}

func (s *tileSink) block(role, a, b int) []float64 {
	blk := s.blk[role][:s.lay.num[a]*s.lay.num[b]]
	clear(blk)
	s.shells[role], s.handed[role] = [2]int{a, b}, true
	return blk
}

func (s *tileSink) done() {
	for r, handed := range s.handed {
		if !handed {
			continue
		}
		a, b := s.shells[r][0], s.shells[r][1]
		x0, nx, y0, ny := s.lay.off[a], s.lay.num[a], s.lay.off[b], s.lay.num[b]
		for x := 0; x < nx; x++ {
			for y, v := range s.blk[r][x*ny : x*ny+ny] {
				if v == 0 {
					continue
				}
				if x0+x == y0+y {
					v *= 2
				}
				s.f.AddLower(x0+x, y0+y, v)
			}
		}
		s.handed[r] = false
	}
}

// Package distmat implements GA-style 2D block-distributed symmetric
// matrices over the DDI one-sided machinery, plus the distributed BLAS-3
// primitives (MatMul, Square, Frobenius norm, Gershgorin bounds) needed
// for purification-based SCF. It is the repository's answer to the
// memory wall in the paper's eqs. (3a)-(3c): the hybrid algorithms shrink
// the per-node *replication factor*, but every rank still holds full
// N x N matrices; distmat shards them across the world so the per-rank
// footprint falls as O(N^2 / P) and systems whose replicated matrices
// exceed a node's MCDRAM stay runnable.
//
// Layout: the matrix is split into fixed bs x bs tiles (the trailing
// block rows/columns are zero-padded inside their tiles, so tile algebra
// needs no edge cases). Tile (bi, bj) lives on rank
// (bi mod Pr)*Pc + (bj mod Pc) of a Pr x Pc process grid — block-cyclic
// in both dimensions, the gtfock/ScaLAPACK distribution, which keeps
// ownership balanced for any matrix size. Each rank backs its tiles with
// one DDI float window; every rank computes the identical (owner, offset)
// table, so any rank can Get/Put/Acc any tile with pure one-sided
// traffic and no directory lookups.
package distmat

import "math"

// Grid is a Pr x Pc process grid laid over a DDI world, row-major:
// rank = row*Pc + col. Pr >= Pc by construction (tall grids keep
// row-block ownership contiguous for the common Pr|NB case).
type Grid struct {
	Pr, Pc int
	// MyRow, MyCol locate the calling rank on the grid.
	MyRow, MyCol int
}

// Factor2D splits p ranks into the most-square Pr x Pc grid with
// Pr*Pc == p and Pr >= Pc (4 -> 2x2, 6 -> 3x2, 7 -> 7x1, 16 -> 4x4).
func Factor2D(p int) (pr, pc int) {
	if p < 1 {
		panic("distmat: grid needs at least one rank")
	}
	pc = int(math.Sqrt(float64(p)))
	for p%pc != 0 {
		pc--
	}
	pr = p / pc
	return pr, pc
}

// NewGrid lays a process grid over a world of the given size for the
// given rank. All ranks must construct it with the same size.
func NewGrid(rank, size int) *Grid {
	pr, pc := Factor2D(size)
	return &Grid{Pr: pr, Pc: pc, MyRow: rank / pc, MyCol: rank % pc}
}

// OwnerOf returns the rank owning block (bi, bj) under the block-cyclic
// distribution.
func (g *Grid) OwnerOf(bi, bj int) int {
	return (bi%g.Pr)*g.Pc + (bj % g.Pc)
}

// DefaultBlockSize picks a tile edge for an n x n matrix on a pr x pc
// grid: about two block rows per grid row (enough tiles that every rank
// owns work, few enough that tile overheads stay negligible), clamped to
// [1, 64].
func DefaultBlockSize(n, pr, pc int) int {
	dim := pr
	if pc > dim {
		dim = pc
	}
	bs := (n + 2*dim - 1) / (2 * dim)
	if bs < 1 {
		bs = 1
	}
	if bs > 64 {
		bs = 64
	}
	return bs
}

// PerRankTileBytes returns the maximum per-rank storage (bytes) of ONE
// n x n matrix distributed over ranks with tile edge bs (0 = the default
// for that grid): the worst rank's owned-tile count times the padded
// tile size. This is the distributed-storage counterpart of one
// replicated N^2 (or packed N(N+1)/2) matrix in eqs. (3a)-(3c).
func PerRankTileBytes(n, ranks, bs int) int64 {
	pr, pc := Factor2D(ranks)
	if bs <= 0 {
		bs = DefaultBlockSize(n, pr, pc)
	}
	nb := (n + bs - 1) / bs
	// Worst rank: owns ceil(nb/Pr) block rows x ceil(nb/Pc) block cols.
	rows := (nb + pr - 1) / pr
	cols := (nb + pc - 1) / pc
	return int64(rows) * int64(cols) * int64(bs) * int64(bs) * 8
}

// FootprintPerRank models the distributed SCF working set per rank:
// the five distributed matrix roles a purification SCF keeps live
// (S^-1/2, H, F, D and one multiply scratch) — the apples-to-apples
// comparison against the five replicated matrices charged per process by
// the eq. (3a) accounting. On top come the SCF's DIIS history (a fixed
// four error/Fock pairs) and the Fock build's bounded tile staging
// (scf.Plan.CacheTiles and AccTiles; 0 = twice the block dimension each).
func FootprintPerRank(nbf, ranks int) int64 {
	return 5 * PerRankTileBytes(nbf, ranks, 0)
}

package distmat

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ddi"
	"repro/internal/integrity"
	"repro/internal/linalg"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// BlockMat is an n x n matrix distributed in bs x bs tiles over the
// process grid (see the package comment for the layout). All collective
// methods (New, Zero, Scatter/Gather, the ops in ops.go) must be called
// by every rank of the world at the same point; Get/Put/AccTile and At
// are one-sided and may be called by any rank at any time between
// barriers. The matrix holds one window per owning rank (nil for a rank
// that owns no tile), created collectively in New in owner order, plus
// one checksum counter window (verifySame).
type BlockMat struct {
	G  *Grid
	Dx *ddi.Context
	N  int // logical dimension
	BS int // tile edge (trailing tiles zero-padded)
	NB int // tiles per dimension: ceil(N/BS)

	owner  []int // tile (bi,bj) -> owning rank, row-major over blocks
	offset []int // tile (bi,bj) -> float offset in the owner's window

	ownedTiles int
	wins       []*mpi.Win // per-rank data windows
	ck         *mpi.Win   // one checksum slot per rank (verifySame)
	local      []float64  // the calling rank's own window, read in place by readTile

	// One-sided traffic accounting (off-rank bytes only), mirrored into
	// the distmat.* telemetry counters when a session is attached. The
	// counter handles are resolved once at construction — tile ops are
	// the innermost loop of every collective, so a per-op map lookup is
	// measurable overhead.
	getBytes, putBytes, accBytes atomic.Int64
	getCtr, putCtr, accCtr       *telemetry.Counter

	// putScratch pools delta buffers for the ABFT read-old/put-new path
	// in PutTile (pooled, not a single field: concurrent Puts to
	// DIFFERENT tiles are legal and must not share scratch).
	putScratch sync.Pool

	// ab holds the checksum-tile state of an ABFT matrix (see abft.go);
	// nil for a plain matrix.
	ab *abftState
}

// New collectively creates an n x n distributed matrix with tile edge bs
// (0 = DefaultBlockSize for the grid). All ranks must call it in the
// same order with the same shape.
func New(g *Grid, dx *ddi.Context, n, bs int) *BlockMat {
	return newMat(g, dx, n, bs, false)
}

// NewABFT collectively creates an n x n distributed matrix that also
// maintains Huang–Abraham checksum tiles (see abft.go): PutTile and
// AccTile keep per-block-row and per-block-column parity tiles coherent,
// AuditParity detects and repairs resident corruption, and Salvage
// reconstructs tiles lost to rank death.
func NewABFT(g *Grid, dx *ddi.Context, n, bs int) *BlockMat {
	return newMat(g, dx, n, bs, true)
}

func newMat(g *Grid, dx *ddi.Context, n, bs int, abft bool) *BlockMat {
	comm := dx.Comm
	if bs <= 0 {
		bs = DefaultBlockSize(n, g.Pr, g.Pc)
	}
	nb := (n + bs - 1) / bs
	m := &BlockMat{G: g, Dx: dx, N: n, BS: bs, NB: nb}
	tel := comm.Telemetry()
	m.getCtr = tel.Counter("distmat.get.bytes")
	m.putCtr = tel.Counter("distmat.put.bytes")
	m.accCtr = tel.Counter("distmat.acc.bytes")
	bs2 := bs * bs
	m.putScratch.New = func() any { return make([]float64, bs2) }

	counts := make([]int, comm.Size())
	m.owner = make([]int, nb*nb)
	m.offset = make([]int, nb*nb)
	for bi := 0; bi < nb; bi++ {
		for bj := 0; bj < nb; bj++ {
			o := g.OwnerOf(bi, bj)
			m.owner[bi*nb+bj] = o
			m.offset[bi*nb+bj] = counts[o] * bs * bs
			counts[o]++
		}
	}
	m.ownedTiles = counts[comm.Rank()]
	m.wins = createWindows(comm, counts, bs)
	m.ck = comm.WinCreate(0, comm.Size())
	if m.ownedTiles > 0 {
		m.local = m.wins[comm.Rank()].Local()
	}
	if abft {
		m.initABFT()
	}
	comm.Barrier()
	return m
}

// createWindows collectively creates one float window per rank holding
// counts[r] tiles of edge bs, in rank order; a rank storing nothing
// gets none (nil).
func createWindows(comm *mpi.Comm, counts []int, bs int) []*mpi.Win {
	wins := make([]*mpi.Win, len(counts))
	for r, c := range counts {
		if c > 0 {
			wins[r] = comm.WinCreate(c*bs*bs, 0)
		}
	}
	return wins
}

// sameShape panics unless b shares m's dimension, tile edge and grid —
// the precondition of every tile-aligned binary op.
func (m *BlockMat) sameShape(b *BlockMat) {
	if m.N != b.N || m.BS != b.BS || m.G.Pr != b.G.Pr || m.G.Pc != b.G.Pc {
		panic(fmt.Sprintf("distmat: shape mismatch: %dx%d/bs%d vs %dx%d/bs%d",
			m.N, m.N, m.BS, b.N, b.N, b.BS))
	}
}

func (m *BlockMat) tileIndex(bi, bj int) int {
	if bi < 0 || bi >= m.NB || bj < 0 || bj >= m.NB {
		panic(fmt.Sprintf("distmat: tile (%d,%d) out of range %d", bi, bj, m.NB))
	}
	return bi*m.NB + bj
}

// OwnerOf returns the rank owning tile (bi, bj).
func (m *BlockMat) OwnerOf(bi, bj int) int { return m.owner[m.tileIndex(bi, bj)] }

// OwnsTile reports whether the calling rank owns tile (bi, bj).
func (m *BlockMat) OwnsTile(bi, bj int) bool {
	return m.owner[m.tileIndex(bi, bj)] == m.Dx.Comm.Rank()
}

// OwnedTiles returns the number of tiles stored on the calling rank.
func (m *BlockMat) OwnedTiles() int { return m.ownedTiles }

// LocalBytes returns the tile storage held by the calling rank.
func (m *BlockMat) LocalBytes() int64 {
	return int64(m.ownedTiles) * int64(m.BS) * int64(m.BS) * 8
}

func (m *BlockMat) countTraffic(kind *atomic.Int64, ctr *telemetry.Counter, owner, n int) {
	if owner == m.Dx.Comm.Rank() {
		return
	}
	bytes := int64(n) * 8
	kind.Add(bytes)
	ctr.Add(bytes)
}

// GetTile fetches tile (bi, bj) into out (BS*BS floats, row-major,
// zero-padded past N). One-sided.
func (m *BlockMat) GetTile(bi, bj int, out []float64) {
	t := m.tileIndex(bi, bj)
	m.countTraffic(&m.getBytes, m.getCtr, m.owner[t], len(out))
	m.wins[m.owner[t]].Get(m.offset[t], out)
}

// readTile returns tile (bi, bj) for reading: the calling rank's window
// storage itself when it owns the tile (buf may then be nil), else a
// GetTile copy in buf. The in-place slice is read-only (writes go through
// PutTile or a linear op, which keep parity); the ops' barriers keep
// writers off it.
func (m *BlockMat) readTile(bi, bj int, buf []float64) []float64 {
	if m.OwnsTile(bi, bj) {
		return m.ownedTile(bi, bj)
	}
	m.GetTile(bi, bj, buf)
	return buf
}

// ownedTile returns the storage of tile (bi, bj), which the calling rank
// owns, in place. Only the linear ops (linearOp, AddScaledIdentity)
// write through it, between the barriers that fence every other reader
// and writer of the matrix, and on an ABFT matrix they carry its parity
// themselves; the resident-SDC injector corrupts through it on purpose.
func (m *BlockMat) ownedTile(bi, bj int) []float64 {
	off := m.offset[m.tileIndex(bi, bj)]
	end := off + m.BS*m.BS
	return m.local[off:end:end]
}

// PutTile stores tile (bi, bj) from data (BS*BS floats). One-sided; the
// caller is responsible for write ownership (concurrent Put and Acc to
// the same tile race). On an ABFT matrix the overwrite becomes
// read-old/put-new/accumulate-delta so the parity tiles stay coherent —
// safe under the same single-writer-per-tile discipline. The old tile is
// read in place when the calling rank owns it. This is the parity path of
// the non-linear writers (products, transposes, scatters); the linear
// ops carry parity without it (linearOp).
func (m *BlockMat) PutTile(bi, bj int, data []float64) {
	t := m.tileIndex(bi, bj)
	m.countTraffic(&m.putBytes, m.putCtr, m.owner[t], len(data))
	if m.ab != nil {
		delta := m.putScratch.Get().([]float64)[:len(data)]
		old := delta
		if m.owner[t] == m.Dx.Comm.Rank() {
			old = m.ownedTile(bi, bj)[:len(data)]
		} else {
			m.wins[m.owner[t]].Get(m.offset[t], old)
		}
		for i, v := range data {
			delta[i] = v - old[i]
		}
		m.wins[m.owner[t]].Put(m.offset[t], data)
		m.accParity(bi, bj, delta)
		m.putScratch.Put(delta)
		return
	}
	m.wins[m.owner[t]].Put(m.offset[t], data)
}

// AccTile element-wise adds data (BS*BS floats) into tile (bi, bj).
// One-sided and atomic with respect to other AccTile calls (the window
// lock serializes accumulates), the distmat analogue of DDI's acc.
func (m *BlockMat) AccTile(bi, bj int, data []float64) {
	t := m.tileIndex(bi, bj)
	m.countTraffic(&m.accBytes, m.accCtr, m.owner[t], len(data))
	m.wins[m.owner[t]].Acc(m.offset[t], data)
	if m.ab != nil {
		m.accParity(bi, bj, data)
	}
}

// At reads one element, one-sided. Convenience for tests and spot
// checks; bulk readers should move tiles (see TileReader).
func (m *BlockMat) At(i, j int) float64 {
	bi, bj := i/m.BS, j/m.BS
	t := m.tileIndex(bi, bj)
	var buf [1]float64
	m.countTraffic(&m.getBytes, m.getCtr, m.owner[t], 1)
	m.wins[m.owner[t]].Get(m.offset[t]+(i%m.BS)*m.BS+(j%m.BS), buf[:])
	return buf[0]
}

// Traffic returns the off-rank one-sided bytes this rank moved through
// the matrix since creation (get, put, acc).
func (m *BlockMat) Traffic() (get, put, acc int64) {
	return m.getBytes.Load(), m.putBytes.Load(), m.accBytes.Load()
}

// Zero collectively clears the matrix: a linear op, so on an ABFT
// matrix the parity tiles are cleared with the data, which also resets
// any accumulated floating-point drift in the checksums.
func (m *BlockMat) Zero() {
	m.linearOp(nil, func(out []float64, _ [][]float64) { clear(out) })
}

// verifySame checks that every rank holds checksum ck, through the
// matrix's checksum window (one int64 slot per rank). The two-barrier
// protocol (store, barrier, read+verify, barrier) makes the window safely
// reusable across successive collective calls.
func (m *BlockMat) verifySame(ck uint64, op string) error {
	comm := m.Dx.Comm
	m.ck.Store(comm.Rank(), int64(ck))
	comm.Barrier()
	var err error
	for r := 0; r < comm.Size(); r++ {
		if got := uint64(m.ck.Load(r)); got != ck {
			err = fmt.Errorf("distmat: %s checksum mismatch: rank %d has %016x, rank %d has %016x",
				op, comm.Rank(), ck, r, got)
			break
		}
	}
	comm.Barrier()
	return err
}

// ScatterDense collectively distributes a replicated dense matrix into
// the tiles. Every rank passes its own copy of d; a Fletcher-64 checksum
// agreement across ranks rejects divergent replicas — the checkpoint
// interop guard: a warm-start density loaded from disk must be
// bit-identical everywhere before it is sharded.
func (m *BlockMat) ScatterDense(d *linalg.Matrix) error {
	if d.Rows != m.N || d.Cols != m.N {
		return fmt.Errorf("distmat: scatter of %dx%d into %dx%d", d.Rows, d.Cols, m.N, m.N)
	}
	ck := integrity.ChecksumPayload(d.Data, []int{d.Rows, d.Cols})
	if err := m.verifySame(ck, "scatter"); err != nil {
		return err
	}
	bs := m.BS
	buf := make([]float64, bs*bs)
	me := m.Dx.Comm.Rank()
	for bi := 0; bi < m.NB; bi++ {
		for bj := 0; bj < m.NB; bj++ {
			if m.owner[bi*m.NB+bj] != me {
				continue
			}
			for i := range buf {
				buf[i] = 0
			}
			for r := 0; r < bs && bi*bs+r < m.N; r++ {
				row := d.Row(bi*bs + r)
				for c := 0; c < bs && bj*bs+c < m.N; c++ {
					buf[r*bs+c] = row[bj*bs+c]
				}
			}
			m.PutTile(bi, bj, buf)
		}
	}
	m.Dx.Comm.Barrier()
	return nil
}

// GatherVerified collectively rebuilds the replicated dense matrix on
// every rank and verifies all ranks assembled a bit-identical copy
// (Fletcher-64 agreement) — the checkpoint-interop path back out of the
// distributed representation.
func (m *BlockMat) GatherVerified() (*linalg.Matrix, error) {
	if m.ab != nil {
		// Verify-on-gather: never hand back a replicated copy assembled
		// from tiles the checksum invariant would have rejected.
		if _, err := m.AuditParity(); err != nil {
			return nil, err
		}
	}
	bs := m.BS
	out := linalg.NewSquare(m.N)
	buf := make([]float64, bs*bs)
	for bi := 0; bi < m.NB; bi++ {
		for bj := 0; bj < m.NB; bj++ {
			m.GetTile(bi, bj, buf)
			for r := 0; r < bs && bi*bs+r < m.N; r++ {
				row := out.Row(bi*bs + r)
				for c := 0; c < bs && bj*bs+c < m.N; c++ {
					row[bj*bs+c] = buf[r*bs+c]
				}
			}
		}
	}
	ck := integrity.ChecksumPayload(out.Data, []int{out.Rows, out.Cols})
	if err := m.verifySame(ck, "gather"); err != nil {
		return nil, err
	}
	return out, nil
}

package distmat

// Tile movement for the distributed Fock build. The builder reads
// density elements in shell-block order and accumulates Fock
// contributions at canonical lower-triangle locations; both sides get a
// bounded per-rank staging area so the rank's working set stays O(cap)
// tiles no matter how large the matrix is — refetch traffic is the price
// of the memory bound, and both are counted.

// TileReader is a bounded read-through cache of density tiles with
// element granularity. Not safe for concurrent use (one per rank). Reset
// drops the contents when the underlying matrix changes (a new SCF
// iteration).
type TileReader struct {
	m     *BlockMat
	cap   int
	tiles map[int][]float64
	fifo  []int
	// recent is a small direct-mapped front cache over the map: the Fock
	// inner loops alternate reads across ~6 tile regions, so a slot per
	// low key bits keeps most hits off the map path.
	recent [8]struct {
		key  int
		tile []float64
	}

	Hits, Misses, Evictions int64
	peakTiles               int
}

// NewTileReader builds a reader over m holding at most capTiles tiles
// (0 = twice the block dimension, cf. a few block rows).
func NewTileReader(m *BlockMat, capTiles int) *TileReader {
	if capTiles <= 0 {
		capTiles = 2 * m.NB
	}
	if capTiles < 4 {
		capTiles = 4
	}
	r := &TileReader{m: m, cap: capTiles, tiles: make(map[int][]float64, capTiles)}
	for i := range r.recent {
		r.recent[i].key = -1
	}
	return r
}

// Retarget points the reader at a different matrix of the same shape
// and drops the cache — the double-buffer swap of the resilient SCF,
// where the density pointer flips between iterations instead of being
// copied.
func (r *TileReader) Retarget(m *BlockMat) {
	r.m = m
	r.Reset()
}

// Reset drops every cached tile (collectively irrelevant — purely
// local).
func (r *TileReader) Reset() {
	clear(r.tiles)
	r.fifo = r.fifo[:0]
	for i := range r.recent {
		r.recent[i].key = -1
	}
}

// At reads element (i, j), fetching the containing tile on a miss and
// evicting FIFO when over capacity.
func (r *TileReader) At(i, j int) float64 {
	bs := r.m.BS
	key := (i/bs)*r.m.NB + j/bs
	slot := &r.recent[key&7]
	if slot.key == key {
		r.Hits++
		return slot.tile[(i%bs)*bs+j%bs]
	}
	tile, ok := r.tiles[key]
	if !ok {
		r.Misses++
		if len(r.fifo) >= r.cap {
			old := r.fifo[0]
			r.fifo = r.fifo[1:]
			delete(r.tiles, old)
			if s := &r.recent[old&7]; s.key == old {
				s.key = -1
			}
			r.Evictions++
		}
		tile = make([]float64, bs*bs)
		r.m.GetTile(key/r.m.NB, key%r.m.NB, tile)
		r.tiles[key] = tile
		r.fifo = append(r.fifo, key)
		if len(r.fifo) > r.peakTiles {
			r.peakTiles = len(r.fifo)
		}
	} else {
		r.Hits++
	}
	slot.key = key
	slot.tile = tile
	return tile[(i%bs)*bs+j%bs]
}

// PeakBytes returns the high-water tile storage held by the reader.
func (r *TileReader) PeakBytes() int64 {
	return int64(r.peakTiles) * int64(r.m.BS) * int64(r.m.BS) * 8
}

// TileAccum is a write-combining accumulator over a distributed matrix:
// contributions are summed into local per-tile buffers and pushed with
// one AccTile per dirty tile, either when the buffer budget overflows or
// at Flush. Not safe for concurrent use (one per rank).
type TileAccum struct {
	m     *BlockMat
	cap   int
	tiles map[int][]float64

	Flushes   int64 // AccTile pushes issued
	Spills    int64 // flushes forced by the capacity bound
	peakTiles int
}

// NewTileAccum builds an accumulator over m buffering at most capTiles
// dirty tiles (0 = twice the block dimension).
func NewTileAccum(m *BlockMat, capTiles int) *TileAccum {
	if capTiles <= 0 {
		capTiles = 2 * m.NB
	}
	if capTiles < 4 {
		capTiles = 4
	}
	return &TileAccum{m: m, cap: capTiles, tiles: make(map[int][]float64, capTiles)}
}

// AddLower accumulates v at the canonical lower-triangle location of
// {x, y}.
func (a *TileAccum) AddLower(x, y int, v float64) {
	if x < y {
		x, y = y, x
	}
	a.Add(x, y, v)
}

// Add accumulates v at (i, j).
func (a *TileAccum) Add(i, j int, v float64) {
	bs := a.m.BS
	key := (i/bs)*a.m.NB + j/bs
	tile, ok := a.tiles[key]
	if !ok {
		if len(a.tiles) >= a.cap {
			a.Spills++
			a.Flush()
		}
		tile = make([]float64, bs*bs)
		a.tiles[key] = tile
		if len(a.tiles) > a.peakTiles {
			a.peakTiles = len(a.tiles)
		}
	}
	tile[(i%bs)*bs+j%bs] += v
}

// Flush pushes every dirty tile with one atomic AccTile each and clears
// the buffers. NOT collective — call freely; the build's closing barrier
// orders the last flush before readers.
func (a *TileAccum) Flush() {
	for key, tile := range a.tiles {
		a.m.AccTile(key/a.m.NB, key%a.m.NB, tile)
		a.Flushes++
	}
	clear(a.tiles)
}

// PeakBytes returns the high-water buffer storage held by the
// accumulator.
func (a *TileAccum) PeakBytes() int64 {
	return int64(a.peakTiles) * int64(a.m.BS) * int64(a.m.BS) * 8
}

package distmat

// Algorithm-based fault tolerance (Huang–Abraham style) for BlockMat.
//
// An ABFT matrix (NewABFT) maintains parity tiles alongside the data
// tiles: the NB block rows and NB block columns are each cut into
// grid-aligned parity groups, and every group owns one checksum tile
// equal to the element-wise sum of its members. Group shapes follow the
// block-cyclic distribution itself:
//
//   row group (bi, k), k in [0, KR), KR = ceil(NB/Pc): the tiles
//     T(bi, bj) for bj in [k*Pc, min((k+1)*Pc, NB)) — one member per
//     grid column, all members living on grid row bi mod Pr.
//   col group (bj, k), k in [0, KC), KC = ceil(NB/Pr): the tiles
//     T(bi, bj) for bi in [k*Pr, ...) — one member per grid row.
//
// Parity owners are deliberately placed OFF the members' grid row
// (resp. column): a single rank failure can therefore never take a data
// tile together with its row parity, so every lost tile is
// reconstructible as parity minus the surviving members (Salvage). The
// same invariant doubles as silent-data-corruption detection: a
// resident bit flip in a data tile leaves both its row and its column
// parity disagreeing with a fresh member sum, and the intersection of a
// mismatched row group with a mismatched column group localizes the
// corrupt tile, which AuditParity then repairs in place from the row
// parity (extending the integrity ladder of the SDC work to resident
// tile memory, not just messages in flight).
//
// Parity maintenance follows the op. Checksums are linear, so a linear
// op (Copy, Scale, Axpby, LinearCombine, Zero: linearOp) over ABFT
// inputs writes its data tiles raw and applies the same combination to
// the parity tiles each rank owns (linearParity); AddScaledIdentity adds
// s·I to the parity of the groups holding a diagonal tile. The
// non-linear writers (products, transposes, scatters) and an ABFT output
// fed a plain input go through PutTile, which turns into
// read-old/put-new/accumulate-delta, and AccTile accumulates its addend
// into both parities; both are safe under the single-writer-per-tile
// discipline every mutating collective in ops.go already follows. A
// linear op thus carries its inputs' checksums, not its output's bits:
// a tile corrupted in a source after that source's last audit reaches
// the output's data but not its parity, so the output's audit catches
// it.

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// Parity comparison tolerances. Delta-accumulation rounds differently
// than a fresh member sum, so exact equality is wrong; drift far below
// these bounds is floating-point noise, anything above is corruption.
// A non-finite difference (NaN, or an infinity against a finite value)
// is always a mismatch: parityMismatch accepts only d <= limit with d
// finite.
const (
	abftRelTol = 1e-8
	abftAbsTol = 1e-10
)

// abftRefreshEvery paces the full parity-refresh phase of AuditParity: a
// clean audit (no mismatch anywhere) returns after detection, and only
// every abftRefreshEvery-th audit rewrites all parities to reset the
// floating-point drift that delta accumulation slowly builds up. Drift
// crossing the mismatch tolerance between refreshes is still caught —
// it reads as a (row) mismatch and forces the full phase that cycle.
const abftRefreshEvery = 32

// abftState carries the parity-group table of one ABFT matrix (see
// parityPlan for its order).
type abftState struct {
	kr, kc int           // row groups per block row, column groups per block column
	groups []parityGroup // row group (bi, k) at bi*kr+k, column group (bj, k) at NB*kr + bj*kc+k

	ownedParity  int        // parity tiles stored on the calling rank
	wins         []*mpi.Win // per-rank parity windows
	sinceRefresh int        // audits since the last full parity refresh
	parityCtr    *telemetry.Counter

	// scratch holds AuditParity's three bs*bs buffers (fresh sum, remote
	// member tile, remote parity tile), allocated by the first audit.
	scratch []float64
}

// parityGroup is one checksum tile: the rank storing it, its float
// offset in that rank's parity window, and the tile indices (bi*NB+bj)
// it sums, as the run first, first+step, ... below end.
type parityGroup struct {
	owner, off       int
	first, step, end int
}

// rowParityOwner places the parity of row group (bi, k) on the grid row
// BELOW the members' row (all members of a row group live on grid row
// bi mod Pr), cycling columns with k so parity load spreads evenly.
// Factor2D gives Pr >= 2 whenever the world has >= 2 ranks, so the
// owner is off-row exactly when survival is possible at all.
func rowParityOwner(g *Grid, bi, k int) int {
	return ((bi%g.Pr+1)%g.Pr)*g.Pc + (bi+k)%g.Pc
}

// colParityOwner places the parity of column group (bj, k) on the grid
// column beside the members' column, cycling rows with k. When Pc == 1
// the owner degenerates onto the members' column, but in that geometry
// every row group has a single member, i.e. the row parity is a full
// off-row copy, so reconstruction never needs the column parity.
func colParityOwner(g *Grid, bj, k int) int {
	return ((bj+k)%g.Pr)*g.Pc + (bj%g.Pc+1)%g.Pc
}

// parityPlan lays out every parity group of an nb x nb tile matrix with
// tile edge bs over grid g: the row groups first, then the column
// groups, each owner packing its parity tiles into its window in that
// order. counts[r] is the number of parity tiles rank r stores. Every
// rank derives the identical plan, and the memory model reads the same
// one (ABFTBytesPerRank).
func parityPlan(g *Grid, ranks, nb, bs int) (ab *abftState, counts []int) {
	ab = &abftState{kr: (nb + g.Pc - 1) / g.Pc, kc: (nb + g.Pr - 1) / g.Pr}
	ab.groups = make([]parityGroup, 0, nb*(ab.kr+ab.kc))
	counts = make([]int, ranks)
	add := func(owner, first, step, end int) {
		ab.groups = append(ab.groups, parityGroup{owner, counts[owner] * bs * bs, first, step, end})
		counts[owner]++
	}
	for bi := 0; bi < nb; bi++ {
		for k := 0; k < ab.kr; k++ {
			add(rowParityOwner(g, bi, k), bi*nb+k*g.Pc, 1, bi*nb+min((k+1)*g.Pc, nb))
		}
	}
	for bj := 0; bj < nb; bj++ {
		for k := 0; k < ab.kc; k++ {
			add(colParityOwner(g, bj, k), k*g.Pr*nb+bj, nb, min((k+1)*g.Pr, nb)*nb)
		}
	}
	return ab, counts
}

// initABFT builds the parity-group table and creates the parity
// windows. Called inside the collective constructor, between its
// barriers.
func (m *BlockMat) initABFT() {
	comm := m.Dx.Comm
	ab, counts := parityPlan(m.G, comm.Size(), m.NB, m.BS)
	ab.ownedParity = counts[comm.Rank()]
	ab.parityCtr = comm.Telemetry().Counter("distmat.abft.parity.bytes")
	ab.wins = createWindows(comm, counts, m.BS)
	m.ab = ab
}

// ABFT reports whether the matrix maintains checksum tiles.
func (m *BlockMat) ABFT() bool { return m.ab != nil }

// rawGetTile / rawPutTile move a data tile without parity maintenance
// or traffic accounting — the audit/repair/salvage plumbing, which must
// read and write tiles whose parity already reflects the true value.
func (m *BlockMat) rawGetTile(bi, bj int, out []float64) {
	t := m.tileIndex(bi, bj)
	m.wins[m.owner[t]].Get(m.offset[t], out)
}

func (m *BlockMat) rawPutTile(bi, bj int, data []float64) {
	t := m.tileIndex(bi, bj)
	m.wins[m.owner[t]].Put(m.offset[t], data)
}

// tileGroups returns the indices of tile (bi, bj)'s row and column
// parity groups, in that order.
func (m *BlockMat) tileGroups(bi, bj int) [2]int {
	return [2]int{bi*m.ab.kr + bj/m.G.Pc, m.NB*m.ab.kr + bj*m.ab.kc + bi/m.G.Pr}
}

// accParity accumulates a tile delta into the row and column parity of
// tile (bi, bj).
func (m *BlockMat) accParity(bi, bj int, delta []float64) {
	me := m.Dx.Comm.Rank()
	for _, gi := range m.tileGroups(bi, bj) {
		p := &m.ab.groups[gi]
		if p.owner != me {
			m.ab.parityCtr.Add(int64(len(delta)) * 8)
		}
		m.ab.wins[p.owner].Acc(p.off, delta)
	}
}

// linearParity is the ABFT leg of linearOp: with m and every input ABFT
// over the same parity plan, it applies the op's element-wise linear map
// f to the parity tiles this rank owns, which the same plan places at the
// same offsets of every matrix's parity window. Called between the op's
// barriers, after the data tiles; it reads and writes only the calling
// rank's own parity windows.
func (m *BlockMat) linearParity(ins []*BlockMat, f func(out []float64, in [][]float64)) {
	if m.ab.ownedParity == 0 {
		return
	}
	me := m.Dx.Comm.Rank()
	in := make([][]float64, len(ins))
	for k, x := range ins {
		in[k] = x.ab.wins[me].Local()
	}
	f(m.ab.wins[me].Local(), in)
}

// addParityDiagonal is the ABFT leg of AddScaledIdentity: each diagonal
// tile's row and column parity gain s on their live diagonal, on the rank
// that owns them.
func (m *BlockMat) addParityDiagonal(s float64) {
	me := m.Dx.Comm.Rank()
	bs := m.BS
	for b := 0; b < m.NB; b++ {
		for _, gi := range m.tileGroups(b, b) {
			p := &m.ab.groups[gi]
			if p.owner != me {
				continue
			}
			pt := m.ab.wins[me].Local()[p.off : p.off+bs*bs]
			for r := 0; r < m.live(b); r++ {
				pt[r*bs+r] += s
			}
		}
	}
}

// parityTile reads the stored parity tile of group gi.
func (m *BlockMat) parityTile(gi int, out []float64) {
	p := &m.ab.groups[gi]
	m.ab.wins[p.owner].Get(p.off, out)
}

// parityView returns the stored parity tile of group gi: in place when
// the calling rank owns it (read-only), else copied into buf.
func (m *BlockMat) parityView(gi int, buf []float64) []float64 {
	p := &m.ab.groups[gi]
	if p.owner == m.Dx.Comm.Rank() {
		end := p.off + m.BS*m.BS
		return m.ab.wins[p.owner].Local()[p.off:end:end]
	}
	m.ab.wins[p.owner].Get(p.off, buf)
	return buf
}

// memberView returns data tile t (bi*NB+bj) for the audit: in place
// when the calling rank owns it (read-only), else a raw copy in buf (no
// traffic accounting).
func (m *BlockMat) memberView(t int, buf []float64) []float64 {
	if m.owner[t] == m.Dx.Comm.Rank() {
		return m.ownedTile(t/m.NB, t%m.NB)
	}
	m.wins[m.owner[t]].Get(m.offset[t], buf)
	return buf
}

// groupSum returns the fresh sum of the members of group gi, skipping
// tile index skip (-1 = none): summed into sum, or for a one-member group
// the member itself (memberView; buf is bs*bs scratch for remote members).
// Read-only.
func (m *BlockMat) groupSum(gi, skip int, sum, buf []float64) []float64 {
	p := &m.ab.groups[gi]
	if p.first+p.step >= p.end && p.first != skip {
		return m.memberView(p.first, buf)
	}
	clear(sum)
	for t := p.first; t < p.end; t += p.step {
		if t == skip {
			continue
		}
		for i, v := range m.memberView(t, buf)[:len(sum)] {
			sum[i] += v
		}
	}
	return sum
}

// parityMismatch reports whether a freshly computed group sum disagrees
// with the stored parity beyond floating-point drift: an element
// mismatches unless |fresh - stored| is finite and at most abftAbsTol +
// abftRelTol*max(|fresh|, |stored|). It is set once at package init to
// the widest of mismatchBodies; every body evaluates the predicate of
// mismatchGo, element for element, so the answer does not depend on it.
var parityMismatch = mismatchGo

// mismatchBody is one parityMismatch body under the name the tests
// select it by.
type mismatchBody struct {
	name string
	f    func(fresh, stored []float64) bool
}

// mismatchBodies lists the parityMismatch bodies this host can run,
// narrowest first: mismatchGo everywhere, then on amd64 the vector
// bodies linalg's CPUID probe reports (abft_amd64.go).
var mismatchBodies = []mismatchBody{{"go", mismatchGo}}

// mismatchGo is the scalar body. The limit is tested against each
// operand's own bound (d is within the larger bound exactly when it is
// within either), which keeps the one pass free of math.Max; NaN and an
// infinite difference fail both comparisons.
func mismatchGo(fresh, stored []float64) bool {
	stored = stored[:len(fresh)]
	for i, f := range fresh {
		s := stored[i]
		d := math.Abs(f - s)
		if !(d <= math.MaxFloat64 && (d <= abftAbsTol+abftRelTol*math.Abs(f) || d <= abftAbsTol+abftRelTol*math.Abs(s))) {
			return true
		}
	}
	return false
}

// AuditStats summarizes one collective AuditParity pass, aggregated
// across ranks (identical on every rank).
type AuditStats struct {
	Groups          int64 // row groups audited for corruption (phase 1a)
	Mismatches      int64 // row groups whose stored parity disagreed with a fresh sum
	RepairedTiles   int64 // corrupt data tiles localized and rewritten from parity
	ParityRefreshes int64 // parities rewritten beyond tolerance in the refresh phase
}

// AuditParity collectively verifies every parity group against a fresh
// member sum, repairs localizable corrupt data tiles in place, and
// refreshes all parities (resetting accumulated float drift). The
// protocol is three barrier-separated phases so detection reads never
// race repair writes:
//
//	1a (read-only)  each row-parity owner re-sums its groups; a
//	    mismatched group is localized by cross-checking each member's
//	    COLUMN group — the member whose column parity also disagrees is
//	    the corrupt one. Zero members flagged means the row parity
//	    itself went stale (phase 2 refreshes and counts it); more than
//	    one flagged is ambiguous and unrepairable.
//	1b (write) apply the planned repairs: corrected = stored row parity
//	    minus the sum of the other members, written raw (the parities
//	    already reflect the true value; a maintaining PutTile would
//	    corrupt them with the repair delta).
//	2  every parity owner recomputes fresh sums and rewrites its
//	    parities, counting those that were off as ParityRefreshes.
//
// Phases 1b and 2 only run when the allreduce after 1a shows a mismatch
// somewhere in the world, or every abftRefreshEvery-th audit (the drift
// reset) — the common clean audit is a single read-only pass plus one
// allreduce.
//
// Returns an error on every rank if any group was unrepairable.
func (m *BlockMat) AuditParity() (AuditStats, error) {
	if m.ab == nil {
		return AuditStats{}, fmt.Errorf("distmat: AuditParity on a non-ABFT matrix")
	}
	comm := m.Dx.Comm
	me := comm.Rank()
	ab := m.ab
	bs2 := m.BS * m.BS
	if ab.scratch == nil {
		ab.scratch = make([]float64, 3*bs2)
	}
	sum, buf, pbuf := ab.scratch[:bs2], ab.scratch[bs2:2*bs2], ab.scratch[2*bs2:]
	comm.Barrier() // fence in-flight one-sided traffic before auditing

	// Phase 1a: detect + localize, read-only. Repairs are planned into
	// a local list and applied only after the barrier.
	type repair struct {
		tile int
		data []float64
	}
	var st AuditStats
	var repairs []repair
	var unrepairable int64
	for gi, g := range ab.groups[:m.NB*ab.kr] {
		if g.owner != me {
			continue
		}
		st.Groups++
		if !parityMismatch(m.groupSum(gi, -1, sum, buf), m.parityView(gi, pbuf)) {
			continue
		}
		st.Mismatches++
		// Localize: the member whose column group also mismatches.
		corrupt := -1
		flagged := 0
		for t := g.first; t < g.end; t += g.step {
			cg := m.tileGroups(t/m.NB, t%m.NB)[1]
			if parityMismatch(m.groupSum(cg, -1, sum, buf), m.parityView(cg, pbuf)) {
				flagged++
				corrupt = t
			}
		}
		switch flagged {
		case 1:
			// corrected = stored row parity - sum of other members.
			fix := slices.Clone(m.parityView(gi, pbuf))
			rest := m.groupSum(gi, corrupt, sum, buf)
			for i := range fix {
				fix[i] -= rest[i]
			}
			repairs = append(repairs, repair{corrupt, fix})
			st.RepairedTiles++
		case 0:
			// The row parity itself drifted or was corrupted; phase 2
			// rewrites it from the (clean) members.
		default:
			unrepairable++
		}
	}
	// Aggregate detection results: every rank sees the world totals and
	// agrees on whether the repair/refresh phases are needed at all.
	agg := []float64{float64(st.Groups), float64(st.Mismatches), float64(st.RepairedTiles), float64(unrepairable)}
	m.Dx.GSumF(agg)
	ab.sinceRefresh++ // collective call: advances in lockstep on every rank
	if agg[1] > 0 || agg[3] > 0 || ab.sinceRefresh >= abftRefreshEvery {
		ab.sinceRefresh = 0
		comm.Barrier()

		// Phase 1b: apply repairs (raw writes; parity already correct).
		for _, r := range repairs {
			m.rawPutTile(r.tile/m.NB, r.tile%m.NB, r.data)
		}
		comm.Barrier()

		// Phase 2: refresh every owned parity, row and column groups
		// alike, from a fresh member sum.
		var off int64 // parities found off
		for gi, p := range ab.groups {
			if p.owner != me {
				continue
			}
			fresh := m.groupSum(gi, -1, sum, buf)
			if parityMismatch(fresh, m.parityView(gi, pbuf)) {
				off++
			}
			ab.wins[me].Put(p.off, fresh)
		}
		st.ParityRefreshes = m.Dx.GSumI(off)
	}
	st.Groups, st.Mismatches, st.RepairedTiles = int64(agg[0]), int64(agg[1]), int64(agg[2])
	unrepairable = int64(agg[3])
	if me == 0 {
		tel := comm.Telemetry()
		tel.Counter("distmat.abft.audits").Add(1)
		tel.Counter("distmat.abft.mismatches").Add(st.Mismatches)
		tel.Counter("distmat.abft.repaired_tiles").Add(st.RepairedTiles)
		tel.Counter("distmat.abft.parity_refreshes").Add(st.ParityRefreshes)
		if st.Mismatches > 0 {
			// The audit is part of the SDC integrity ladder: a parity
			// mismatch is a detected silent corruption, a repaired tile
			// a recovered one.
			tel.Counter("sdc.detected").Add(st.Mismatches)
			tel.Counter("sdc.detected.purify").Add(st.Mismatches)
			tel.Counter("sdc.recovered").Add(st.RepairedTiles)
		}
	}
	comm.Barrier()
	if unrepairable > 0 {
		return st, fmt.Errorf("distmat: abft audit: %d parity group(s) with multiple corrupt members, unrepairable", unrepairable)
	}
	return st, nil
}

// injectResidentSDC gives the fault plan a shot at this rank's resident
// tile memory: the first owned data tile is offered in place to the
// injector at SitePurify (where a scheduled Kill also fires — a death
// mid-purification). In place on purpose: a real memory error does not
// update parity, which is exactly the discrepancy AuditParity exists to
// catch. Returns whether a corruption landed.
func (m *BlockMat) injectResidentSDC() bool {
	me := m.Dx.Comm.Rank()
	for t, o := range m.owner {
		if o == me {
			return m.Dx.Comm.InjectSDC(mpi.SitePurify, m.ownedTile(t/m.NB, t%m.NB))
		}
	}
	return false
}

// --- Lost-tile reconstruction ---

// Salvage resolves tiles of an ABFT matrix whose world lost ranks. The
// surviving ranks keep their old-world windows readable (one-sided gets
// carry no failure fence), so a salvager reads live tiles directly and
// rebuilds dead-rank tiles from parity: row parity minus the other
// (recursively resolved) members, falling back to the column group when
// the row parity owner died too. Resolutions are memoized, so peeling a
// group once serves every later reference.
type Salvage struct {
	src  *BlockMat
	dead []bool

	mu            sync.Mutex
	cache         map[int][]float64
	inProgress    map[int]bool
	reconstructed int64
}

// NewSalvage wraps a surviving rank's handle to an ABFT matrix whose
// listed ranks died.
func NewSalvage(src *BlockMat, deadRanks []int) (*Salvage, error) {
	if !src.ABFT() {
		return nil, fmt.Errorf("distmat: salvage requires an ABFT matrix")
	}
	dead := make([]bool, src.Dx.Comm.Size())
	for _, r := range deadRanks {
		if r < 0 || r >= len(dead) {
			return nil, fmt.Errorf("distmat: salvage: dead rank %d out of world size %d", r, len(dead))
		}
		dead[r] = true
	}
	return &Salvage{
		src:        src,
		dead:       dead,
		cache:      map[int][]float64{},
		inProgress: map[int]bool{},
	}, nil
}

// Dims returns the logical dimension and tile edge of the source.
func (s *Salvage) Dims() (n, bs int) { return s.src.N, s.src.BS }

// Reconstructed returns how many tiles were rebuilt from parity (as
// opposed to read directly from a surviving owner).
func (s *Salvage) Reconstructed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reconstructed
}

// Resolve produces tile (bi, bj) into out (BS*BS floats), reading it
// from its owner when alive and reconstructing it from parity when not.
func (s *Salvage) Resolve(bi, bj int, out []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, err := s.resolve(bi, bj)
	if err != nil {
		return err
	}
	copy(out, v)
	return nil
}

func (s *Salvage) resolve(bi, bj int) ([]float64, error) {
	t := s.src.tileIndex(bi, bj)
	if v, ok := s.cache[t]; ok {
		return v, nil
	}
	if s.inProgress[t] {
		return nil, fmt.Errorf("distmat: salvage: dependency cycle at tile (%d,%d)", bi, bj)
	}
	bs2 := s.src.BS * s.src.BS
	if !s.dead[s.src.owner[t]] {
		v := make([]float64, bs2)
		s.src.rawGetTile(bi, bj, v)
		s.cache[t] = v
		return v, nil
	}
	s.inProgress[t] = true
	defer delete(s.inProgress, t)
	var errs [2]error
	for i, gi := range s.src.tileGroups(bi, bj) {
		v, err := s.fromGroup(gi, t)
		if err == nil {
			s.cache[t] = v
			s.reconstructed++
			return v, nil
		}
		errs[i] = err
	}
	return nil, fmt.Errorf("distmat: salvage: tile (%d,%d) unrecoverable: %v; %v", bi, bj, errs[0], errs[1])
}

// fromGroup peels tile t out of parity group gi: the stored parity minus
// the group's other (recursively resolved) members.
func (s *Salvage) fromGroup(gi, t int) ([]float64, error) {
	m := s.src
	p := &m.ab.groups[gi]
	if s.dead[p.owner] {
		return nil, fmt.Errorf("parity group %d: owner rank %d dead", gi, p.owner)
	}
	v := make([]float64, m.BS*m.BS)
	m.parityTile(gi, v)
	for b := p.first; b < p.end; b += p.step {
		if b == t {
			continue
		}
		sib, err := s.resolve(b/m.NB, b%m.NB)
		if err != nil {
			return nil, fmt.Errorf("parity group %d sibling (%d,%d): %w", gi, b/m.NB, b%m.NB, err)
		}
		for i := range v {
			v[i] -= sib[i]
		}
	}
	return v, nil
}

// ABFTBytesPerRank models the worst rank's parity-tile storage for one
// n x n ABFT matrix over the given world (bs = 0 picks the grid
// default), next to the data-tile bytes the same rank holds — the
// checksum overhead column of the memory-footprint reports. It counts
// the parityPlan that NewABFT allocates.
func ABFTBytesPerRank(n, ranks, bs int) (parity, data int64) {
	pr, pc := Factor2D(ranks)
	if bs <= 0 {
		bs = DefaultBlockSize(n, pr, pc)
	}
	_, counts := parityPlan(&Grid{Pr: pr, Pc: pc}, ranks, (n+bs-1)/bs, bs)
	tile := int64(bs) * int64(bs) * 8
	return int64(slices.Max(counts)) * tile, PerRankTileBytes(n, ranks, bs)
}

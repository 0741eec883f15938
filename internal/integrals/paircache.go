package integrals

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/basis"
)

// Shell-pair precomputation and the production ERI kernel. Every quartet
// (ij|kl) reuses the same per-pair quantities, so they are computed per
// shell PAIR once (O(N^2) storage) instead of per quartet (O(N^4) work).
// What is stored is the pair's Hermite density: with the McMurchie-
// Davidson expansion of a primitive product a(r)b(r) = sum_tuv
// E_t E_u E_v Lambda_tuv(r - P), a contracted quartet is
//
//	(ab|cd) = sum_{bra prims} sum_{tuv} (-1)^{t+u+v} g^ab_tuv *
//	          [ sum_{ket prims} sum_{tau nu phi} g^cd_{tau nu phi}
//	            R_{t+tau,u+nu,v+phi}(alpha, Q-P) / sqrt(p+q) ]
//
// where g = c_a c_b N_a N_b E_t E_u E_v * sqrt(2) pi^{5/4} / p is one
// Hermite term of a primitive pair. The bracket K[tuv][cd] is folded
// over ALL ket primitives before the bra touches it, so the bra
// contraction runs once per bra primitive, not once per primitive
// quartet, and both inner loops are AXPYs over flat arrays. Primitive
// pairs whose Gaussian overlap prefactor exp(-mu R^2) is negligible are
// dropped entirely (primitive screening), which prunes deeply contracted
// shells on distant centers.
//
// The kernel's vector dimension is the ket's primitive pairs. A pair's
// primitive pairs are stored lane by lane in batches of 4 (the last one
// padded with zero-weight lanes), and the R recursion and the fold run
// 4-wide over a batch into per-lane K accumulators (lanes.go), which are
// summed once per bra primitive. The pair with more primitive pairs is the
// ket, using (ab|cd) = (cd|ab) with the block transposed at the end.

// pairScale = sqrt(2) pi^{5/4}: each pair's share of the quartet
// prefactor 2 pi^{5/2} / (p q sqrt(p+q)).
const pairScale = 5.9149671727956128778

// laneTerm is one Hermite term of a batch with its weight g in each lane:
// 0 in a padding lane, and in a lane where the term underflowed while
// another lane's did not.
type laneTerm struct {
	g          [4]float64
	ab, h, off uint16 // component pair ia*nb+ib; (t,u,v) as an index into hermIndex.off; hermIndex.off[h]
}

// primBatch is up to four surviving primitive pairs of one shell pair,
// lane by lane: total exponent a + b, product centre, and the terms.
type primBatch struct {
	p, x, y, z [4]float64
	n          int // lanes in use; the rest are padding
	terms      []laneTerm
}

// pairData is the cached data of one (i >= j) shell pair.
type pairData struct {
	nab     int // component pairs: na * nb
	lab     int // Hermite range: t+u+v <= la + lb
	prims   int // surviving primitive pairs
	batches []primBatch
	// tail is the last batch, when it has one live lane of several
	// batches, with that lane copied to all four: as a ket it runs against
	// four bra primitive pairs at once (lanes.quartet). Nil otherwise.
	tail *primBatch
}

// hermIndex enumerates the Hermite indices (t,u,v), t+u+v <= lmax, in
// order of t+u+v, so that the range of any l <= lmax is the prefix of
// length count[l]. R tables are cubes of fixed stride lmax+1 per axis:
// there the index of (t+tau, u+nu, v+phi) is the SUM of the two indices.
type hermIndex struct {
	lmax  int
	count []int     // count[l] = (l+1)(l+2)(l+3)/6
	off   []uint16  // cube offset (t*stride+u)*stride+v of the h-th index
	sign  []float64 // (-1)^(t+u+v)
	steps []rStep   // steps[h-1] produces entry h of an R table
	boys  []float64 // the Boys table, built before the first quartet
}

// rStep is one entry of the recursion R^n_{t+1,u,v} = x R^{n+1}_{tuv} +
// t R^{n+1}_{t-1,u,v} (likewise along u, v): cur[dst] = d[axis]*prev[a]
// + coef*prev[b], with coef = 0 and b = a where the second term is absent.
type rStep struct {
	coef      float64
	dst, a, b uint16
	axis      uint8
}

func newHermIndex(lmax int) *hermIndex {
	n := (lmax + 1) * (lmax + 2) * (lmax + 3) / 6
	x := &hermIndex{lmax: lmax, count: make([]int, lmax+1), off: make([]uint16, 0, n),
		sign: make([]float64, 0, n), steps: make([]rStep, 0, n-1), boys: boysTableReady()}
	s := lmax + 1
	at := func(t, u, v int) uint16 { return uint16((t*s+u)*s + v) }
	for total := 0; total <= lmax; total++ {
		for t := total; t >= 0; t-- {
			for u := total - t; u >= 0; u-- {
				v := total - t - u
				x.off = append(x.off, at(t, u, v))
				x.sign = append(x.sign, 1-2*float64(total&1))
				if total == 0 {
					continue
				}
				st := rStep{dst: at(t, u, v)}
				switch {
				case t > 0:
					st.axis, st.a, st.b = 0, at(t-1, u, v), at(t-1, u, v)
					if t > 1 {
						st.coef, st.b = float64(t-1), at(t-2, u, v)
					}
				case u > 0:
					st.axis, st.a, st.b = 1, at(t, u-1, v), at(t, u-1, v)
					if u > 1 {
						st.coef, st.b = float64(u-1), at(t, u-2, v)
					}
				default:
					st.axis, st.a, st.b = 2, at(t, u, v-1), at(t, u, v-1)
					if v > 1 {
						st.coef, st.b = float64(v-1), at(t, u, v-2)
					}
				}
				x.steps = append(x.steps, st)
			}
		}
		x.count[total] = len(x.off)
	}
	return x
}

// find returns the index h of (t,u,v).
func (x *hermIndex) find(t, u, v int) uint16 {
	total := t + u + v
	h := 0
	if total > 0 {
		h = x.count[total-1]
	}
	// within one total the order is t descending, then u descending
	h += (total-t)*(total-t+1)/2 + (total - t - u)
	return uint16(h)
}

// eriScratch is what one ShellQuartet call writes besides its output.
type eriScratch struct {
	r0, r1 []float64     // R^n and R^{n+1} cubes [entry][lane]
	k4     []float64     // K[tuv][cd][lane]
	kt     []float64     // K[tuv][cd][bra lane] of a packed tail
	k      []float64     // K[tuv][cd], the lanes summed
	blk    []float64     // (cd|ab), when the ket is the bra
	fn4    []float64     // (-2 alpha)^n F_n [n][lane]
	d      [4][4]float64 // Q - P [axis][lane]; axis 3 unused
	pref   [4]float64    // (p+q)^{-1/2} [lane]
}

// newScratch sizes a scratch for quartets of total order <= lmax over
// shells of at most funcs functions: pairs reach order lmax/2.
func (x *hermIndex) newScratch(funcs int) *eriScratch {
	cube := (x.lmax + 1) * (x.lmax + 1) * (x.lmax + 1)
	nk := funcs * funcs * x.count[x.lmax/2]
	return &eriScratch{
		r0:  make([]float64, 4*cube),
		r1:  make([]float64, 4*cube),
		k4:  make([]float64, 4*nk),
		kt:  make([]float64, 4*nk),
		k:   make([]float64, nk),
		blk: make([]float64, funcs*funcs*funcs*funcs),
		fn4: make([]float64, 4*(x.lmax+1)),
	}
}

// quartet writes the block (bra|ket) to out, laid out out[ab*ncd+cd]. One
// lanes.quartet call runs every primitive loop.
func (x *hermIndex) quartet(bra, ket *pairData, s *eriScratch, out []float64) {
	blk := out
	swap := bra.prims > ket.prims
	if swap {
		bra, ket = ket, bra
		blk = s.blk[:len(out)]
	}
	clear(blk)
	kb, tail := ket.batches, (*primBatch)(nil)
	if ket.tail != nil && bra.prims > 1 {
		kb, tail = kb[:len(kb)-1], ket.tail
	}
	lanes.quartet(blk, bra.batches, kb, tail, bra.lab+ket.lab, bra.lab, ket.nab, x, s)
	if swap {
		nab, ncd := bra.nab, ket.nab // nab of the pair that was the ket
		for ab := 0; ab < nab; ab++ {
			for cd, v := range blk[ab*ncd:][:ncd] {
				out[cd*nab+ab] = v
			}
		}
	}
}

// PairCache holds precomputed shell-pair data for an engine's basis and
// evaluates ERI blocks from it. One cache is shared by every rank and
// thread of a run: the pair data is read-only after construction and a
// call's scratch comes from (and returns to) a pool, so ShellQuartet is
// safe for concurrent use and its result depends on (i,j,k,l) alone.
type PairCache struct {
	index   *hermIndex
	pairs   []pairData // triangular over shell pairs
	scratch sync.Pool  // *eriScratch sized for the basis
	PrimTol float64    // primitive overlap prefactor cutoff
	// counters for tests/benchmarks
	PrimPairsKept, PrimPairsDropped int
}

// DefaultPrimTol is the primitive prefactor cutoff; contributions below
// it are beneath the ERI screening threshold for any partner pair.
const DefaultPrimTol = 1e-12

// NewPairCache precomputes all shell-pair data. primTol <= 0 selects
// DefaultPrimTol.
func NewPairCache(eng *Engine, primTol float64) *PairCache {
	if primTol <= 0 {
		primTol = DefaultPrimTol
	}
	shells := eng.Basis.Shells
	n := len(shells)
	pb := newPairBuilder(eng.Basis)
	pc := &PairCache{index: pb.index, pairs: make([]pairData, n*(n+1)/2), PrimTol: primTol}
	index, funcs := pb.index, pb.funcs // all the pool keeps of the builder
	pc.scratch.New = func() any {
		scratchMade.Add(1)
		return index.newScratch(funcs)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			pd := &pc.pairs[i*(i+1)/2+j]
			pb.build(i, j, primTol, pd)
			pc.PrimPairsKept += pd.prims
			pc.PrimPairsDropped += len(shells[i].Exps)*len(shells[j].Exps) - pd.prims
		}
	}
	return pc
}

// scratchMade counts the scratch every PairCache has made (ScratchMade).
var scratchMade atomic.Int64

// ScratchMade reports how many kernel scratch buffers the PairCaches of
// the process have made so far. A call's scratch comes from a sync.Pool,
// which may drop idle ones (the race detector drops them at random), and
// each refill is a new allocation: whoever accounts for a run's memory
// subtracts these.
func ScratchMade() int64 { return scratchMade.Load() }

// pairBuilder makes pair data over one basis; the index tables and the
// scratch it hands out are sized from the basis' own highest angular
// momentum, whatever a registered .gbs brought. Between calls it keeps
// what a build works in, so a build allocates only what it returns.
type pairBuilder struct {
	shells []basis.Shell
	comps  [][]component
	index  *hermIndex // to 4 * basis MaxL: the widest quartet
	funcs  int        // widest shell
	terms  []laneTerm // what collect lists
	live   []primE    // the surviving primitive pairs of the shell pair
	ebuf   []float64  // their E tables, 3*hermESize(la, lb) each
}

func newPairBuilder(b *basis.Basis) *pairBuilder {
	pb := &pairBuilder{
		shells: b.Shells,
		comps:  make([][]component, len(b.Shells)),
		index:  newHermIndex(4 * b.MaxL()),
		funcs:  b.ShellSizeMax(),
	}
	for i := range b.Shells {
		pb.comps[i] = componentsOf(&b.Shells[i])
	}
	return pb
}

// primE is one primitive pair (exponents p of shell a, q of shell b) with
// its Hermite expansion coefficients.
type primE struct {
	p, q int
	e    pairE
}

// build computes into pd the Hermite pair density of shells (i, j),
// keeping the primitive pairs whose overlap prefactor reaches primTol. It
// reuses the batches and term lists pd already holds.
func (pb *pairBuilder) build(i, j int, primTol float64, pd *pairData) {
	sa, sb := &pb.shells[i], &pb.shells[j]
	la, lb := sa.MaxL(), sb.MaxL()
	var ab [3]float64
	for x := range ab {
		ab[x] = sa.Center[x] - sb.Center[x]
	}
	r2 := ab[0]*ab[0] + ab[1]*ab[1] + ab[2]*ab[2]
	size := 3 * hermESize(la, lb)
	if need := len(sa.Exps) * len(sb.Exps) * size; len(pb.ebuf) < need {
		pb.ebuf = make([]float64, need)
	}
	live := pb.live[:0]
	for p, ap := range sa.Exps {
		for q, bq := range sb.Exps {
			if primTol > 0 && math.Exp(-ap*bq/(ap+bq)*r2) < primTol { // ComputeSchwarz keeps all
				continue
			}
			live = append(live, primE{p: p, q: q, e: newPairE(la, lb, 0, ap, bq, ab, pb.ebuf[len(live)*size:])})
			if len(pb.collect(i, j, live[len(live)-1:], true)) == 0 {
				live = live[:len(live)-1] // every term underflowed: nothing to contribute
			}
		}
	}
	pb.live = live
	nb := (len(live) + 3) / 4
	*pd = pairData{nab: len(pb.comps[i]) * len(pb.comps[j]), lab: la + lb, prims: len(live),
		batches: slices.Grow(pd.batches[:0], nb)[:nb], tail: pd.tail}
	for k := range pd.batches {
		lane := live[4*k : min(4*k+4, len(live))]
		b := &pd.batches[k]
		*b = primBatch{n: len(lane), terms: append(b.terms[:0], pb.collect(i, j, lane, false)...)}
		for n, pe := range lane {
			ap, bq := sa.Exps[pe.p], sb.Exps[pe.q]
			pp := ap + bq
			b.p[n] = pp
			b.x[n] = (ap*sa.Center[0] + bq*sb.Center[0]) / pp
			b.y[n] = (ap*sa.Center[1] + bq*sb.Center[1]) / pp
			b.z[n] = (ap*sa.Center[2] + bq*sb.Center[2]) / pp
		}
	}
	if nb < 2 || pd.batches[nb-1].n != 1 {
		pd.tail = nil
		return
	}
	last := &pd.batches[nb-1]
	if pd.tail == nil {
		pd.tail = new(primBatch)
	}
	t := pd.tail
	*t = primBatch{n: 4, terms: append(t.terms[:0], last.terms...)}
	for lane := range t.p {
		t.p[lane], t.x[lane], t.y[lane], t.z[lane] = last.p[0], last.x[0], last.y[0], last.z[0]
	}
	for i := range t.terms {
		g := t.terms[i].g[0]
		t.terms[i].g = [4]float64{g, g, g, g}
	}
}

// collect lists the Hermite terms of shells (i, j) over up to four
// primitive pairs, one per lane: every (ab, t, u, v) nonzero in some lane.
// With first set it stops at the first such term. The list is pb.terms,
// valid until the next call.
func (pb *pairBuilder) collect(i, j int, lanes []primE, first bool) []laneTerm {
	sa, sb := &pb.shells[i], &pb.shells[j]
	cb := pb.comps[j]
	out := pb.terms[:0]
	ca := pb.comps[i]
	for ia := range ca {
		a := &ca[ia]
		for ib := range cb {
			b := &cb[ib]
			var w [4]float64 // c_a N_a c_b N_b pairScale/(a+b) of each lane
			var ex, ey, ez [4][]float64
			for n := range lanes {
				pe := &lanes[n]
				w[n] = sa.Coefs[a.mi][pe.p] * a.norm * sb.Coefs[b.mi][pe.q] * b.norm * (pairScale / (sa.Exps[pe.p] + sb.Exps[pe.q]))
				ex[n], ey[n], ez[n] = pe.e.rows(a, b)
			}
			for t := 0; t <= a.lx+b.lx; t++ {
				for u := 0; u <= a.ly+b.ly; u++ {
					for v := 0; v <= a.lz+b.lz; v++ {
						lt := laneTerm{ab: uint16(ia*len(cb) + ib)}
						nonzero := false
						for n := range lanes {
							e := ex[n][t] * ey[n][u] * ez[n][v]
							lt.g[n] = w[n] * e
							nonzero = nonzero || e != 0
						}
						if nonzero {
							lt.h = pb.index.find(t, u, v)
							lt.off = pb.index.off[lt.h]
							out = append(out, lt)
							if first {
								pb.terms = out
								return out
							}
						}
					}
				}
			}
		}
	}
	pb.terms = out
	return out
}

// pair fetches cached data for shells (i >= j).
func (pc *PairCache) pair(i, j int) *pairData {
	return &pc.pairs[i*(i+1)/2+j]
}

// ShellQuartet computes the ERI block (ij|kl) from the precomputed pair
// data, laid out as QuartetSource documents. Shell indices must be
// canonical: i >= j and k >= l (which is how every caller enumerates them).
func (pc *PairCache) ShellQuartet(si, sj, sk, sl int, out []float64) []float64 {
	bra, ket := pc.pair(si, sj), pc.pair(sk, sl)
	need := bra.nab * ket.nab
	if cap(out) < need {
		out = make([]float64, need)
	}
	out = out[:need]
	s := pc.scratch.Get().(*eriScratch)
	pc.index.quartet(bra, ket, s, out)
	pc.scratch.Put(s)
	return out
}

// Bytes returns the cache's storage: pair records, batches and their
// Hermite terms.
func (pc *PairCache) Bytes() int64 {
	total := int64(len(pc.pairs)) * int64(unsafe.Sizeof(pairData{}))
	size := func(b *primBatch) int64 {
		return int64(unsafe.Sizeof(*b)) + int64(len(b.terms))*int64(unsafe.Sizeof(laneTerm{}))
	}
	for i := range pc.pairs {
		for j := range pc.pairs[i].batches {
			total += size(&pc.pairs[i].batches[j])
		}
		if t := pc.pairs[i].tail; t != nil {
			total += size(t)
		}
	}
	return total
}

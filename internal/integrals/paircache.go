package integrals

import (
	"math"
	"slices"
	"sync"
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
	x := &hermIndex{lmax: lmax, count: make([]int, lmax+1), boys: boysTableReady()}
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
	k      []float64     // K[tuv][cd], the lanes summed
	blk    []float64     // (cd|ab), when the ket is the bra
	fn4    []float64     // (-2 alpha)^n F_n [n][lane]
	d      [4][4]float64 // Q - P [axis][lane]; axis 3 unused
	pref   [4]float64    // (p+q)^{-1/2} [lane]
	c      [3]float64    // the bra primitive pair's centre
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
		k:   make([]float64, nk),
		blk: make([]float64, funcs*funcs*funcs*funcs),
		fn4: make([]float64, 4*(x.lmax+1)),
	}
}

// coulomb builds the Hermite Coulomb integrals R^0_{tuv}, t+u+v <= l, of
// one bra primitive pair (exponent p, centre s.c) against each lane of a
// ket batch, into one of the scratch cubes:
//
//	R^n_{000}     = (-2 alpha)^n F_n(alpha |Q-P|^2)
//	R^n_{t+1,u,v} = t R^{n+1}_{t-1,u,v} + (Q-P)_x R^{n+1}_{tuv}   (etc. for u, v)
//
// Both run 4-wide: lanes.setup forms the lanes' Q - P, (p+q)^{-1/2} (left
// in s.pref) and R^n_{000}, lanes.recur the recursion. Level n holds the
// entries of order <= l-n and reads only entries of order <= l-n-1 of
// level n+1, all of which that level wrote: the cubes are never cleared.
// Padding lanes are computed like the others from their zero exponent;
// their values are finite and every term weight there is 0.
func (x *hermIndex) coulomb(s *eriScratch, l int, p float64, kb *primBatch) []float64 {
	fn4 := s.fn4[:4*(l+1)]
	lanes.setup(fn4, l, p, &s.c, kb, &s.d, &s.pref, x.boys)
	lanes.recur(s.r0, s.r1, fn4, x.steps, x.count, l, &s.d)
	if l&1 == 0 { // the level loop swaps the cubes l+1 times
		return s.r1
	}
	return s.r0
}

// quartet writes the block (bra|ket) to out, laid out out[ab*ncd+cd].
func (x *hermIndex) quartet(bra, ket *pairData, s *eriScratch, out []float64) {
	blk := out
	swap := bra.prims > ket.prims
	if swap {
		bra, ket = ket, bra
		blk = s.blk[:len(out)]
	}
	clear(blk)
	l := bra.lab + ket.lab
	boff := x.off[:x.count[bra.lab]]
	nh, ncd := len(boff), ket.nab
	k, k4 := s.k[:nh*ncd], s.k4[:4*nh*ncd]
	for bi := range bra.batches {
		bb := &bra.batches[bi]
		for bl := 0; bl < bb.n; bl++ {
			s.c = [3]float64{bb.x[bl], bb.y[bl], bb.z[bl]}
			clear(k4)
			for ki := range ket.batches {
				kb := &ket.batches[ki]
				r := x.coulomb(s, l, bb.p[bl], kb)
				lanes.fold(k4, ncd, r, boff, kb.terms, &s.pref)
			}
			lanes.sum(k, k4)
			lanes.contract(blk, k, ncd, bb.terms, bl, x.sign)
		}
	}
	if swap {
		nab := bra.nab // of the pair that was the ket
		for ab := 0; ab < nab; ab++ {
			for cd, v := range blk[ab*ncd:][:ncd] {
				out[cd*nab+ab] = v
			}
		}
	}
}

// quartetSSSS is the all-s class: one term per primitive pair, F_0 only,
// set up four ket lanes at a time like every other class.
func (x *hermIndex) quartetSSSS(bra, ket *pairData, s *eriScratch) float64 {
	sum := 0.0
	fn := s.fn4[:4]
	for bi := range bra.batches {
		bb := &bra.batches[bi]
		for bl := 0; bl < bb.n; bl++ {
			s.c = [3]float64{bb.x[bl], bb.y[bl], bb.z[bl]}
			ksum := 0.0
			for ki := range ket.batches {
				kb := &ket.batches[ki]
				lanes.setup(fn, 0, bb.p[bl], &s.c, kb, &s.d, &s.pref, x.boys)
				g, w := &kb.terms[0].g, &s.pref
				ksum += (g[0]*fn[0]*w[0] + g[1]*fn[1]*w[1]) + (g[2]*fn[2]*w[2] + g[3]*fn[3]*w[3])
			}
			sum += bb.terms[0].g[bl] * ksum
		}
	}
	return sum
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
	pc.scratch.New = func() any { return index.newScratch(funcs) }
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			pd := pb.build(i, j, primTol)
			pc.PrimPairsKept += pd.prims
			pc.PrimPairsDropped += len(shells[i].Exps)*len(shells[j].Exps) - pd.prims
			pc.pairs[i*(i+1)/2+j] = pd
		}
	}
	return pc
}

// pairBuilder makes pair data over one basis; the index tables and the
// scratch it hands out are sized from the basis' own highest angular
// momentum, whatever a registered .gbs brought.
type pairBuilder struct {
	shells []basis.Shell
	comps  [][]component
	index  *hermIndex // to 4 * basis MaxL: the widest quartet
	funcs  int        // widest shell
	terms  []laneTerm // what collect lists, reused from call to call
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

// build computes the Hermite pair density of shells (i, j), keeping the
// primitive pairs whose overlap prefactor reaches primTol.
func (pb *pairBuilder) build(i, j int, primTol float64) pairData {
	sa, sb := &pb.shells[i], &pb.shells[j]
	la, lb := sa.MaxL(), sb.MaxL()
	var ab [3]float64
	for x := range ab {
		ab[x] = sa.Center[x] - sb.Center[x]
	}
	r2 := ab[0]*ab[0] + ab[1]*ab[1] + ab[2]*ab[2]
	pd := pairData{nab: len(pb.comps[i]) * len(pb.comps[j]), lab: la + lb}
	var live []primE
	for p, ap := range sa.Exps {
		for q, bq := range sb.Exps {
			if math.Exp(-ap*bq/(ap+bq)*r2) < primTol {
				continue
			}
			pe := primE{p: p, q: q, e: newPairE(la, lb, ap, bq, ab)}
			if len(pb.collect(i, j, []primE{pe}, true)) == 0 {
				continue // every term underflowed: nothing to contribute
			}
			live = append(live, pe)
		}
	}
	pd.prims = len(live)
	for lo := 0; lo < len(live); lo += 4 {
		lane := live[lo:min(lo+4, len(live))]
		b := primBatch{n: len(lane), terms: slices.Clone(pb.collect(i, j, lane, false))}
		for n, pe := range lane {
			ap, bq := sa.Exps[pe.p], sb.Exps[pe.q]
			pp := ap + bq
			b.p[n] = pp
			b.x[n] = (ap*sa.Center[0] + bq*sb.Center[0]) / pp
			b.y[n] = (ap*sa.Center[1] + bq*sb.Center[1]) / pp
			b.z[n] = (ap*sa.Center[2] + bq*sb.Center[2]) / pp
		}
		pd.batches = append(pd.batches, b)
	}
	return pd
}

// collect lists the Hermite terms of shells (i, j) over up to four
// primitive pairs, one per lane: every (ab, t, u, v) nonzero in some lane.
// With first set it stops at the first such term. The list is pb.terms,
// valid until the next call.
func (pb *pairBuilder) collect(i, j int, lanes []primE, first bool) []laneTerm {
	sa, sb := &pb.shells[i], &pb.shells[j]
	cb := pb.comps[j]
	out := pb.terms[:0]
	for ia, a := range pb.comps[i] {
		for ib, b := range cb {
			for t := 0; t <= a.lx+b.lx; t++ {
				for u := 0; u <= a.ly+b.ly; u++ {
					for v := 0; v <= a.lz+b.lz; v++ {
						lt := laneTerm{ab: uint16(ia*len(cb) + ib)}
						nonzero := false
						for n, pe := range lanes {
							e := pe.e.product(a, b, t, u, v)
							scale := pairScale / (sa.Exps[pe.p] + sb.Exps[pe.q])
							lt.g[n] = sa.Coefs[a.mi][pe.p] * a.norm * sb.Coefs[b.mi][pe.q] * b.norm * scale * e
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
	if bra.lab+ket.lab == 0 {
		out[0] = pc.index.quartetSSSS(bra, ket, s)
	} else {
		pc.index.quartet(bra, ket, s, out)
	}
	pc.scratch.Put(s)
	return out
}

// Bytes returns the cache's storage: pair records, batches and their
// Hermite terms.
func (pc *PairCache) Bytes() int64 {
	total := int64(len(pc.pairs)) * int64(unsafe.Sizeof(pairData{}))
	for i := range pc.pairs {
		for _, b := range pc.pairs[i].batches {
			total += int64(unsafe.Sizeof(b)) + int64(len(b.terms))*int64(unsafe.Sizeof(laneTerm{}))
		}
	}
	return total
}

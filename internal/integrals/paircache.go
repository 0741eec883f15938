package integrals

import (
	"math"
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
// Hermite term of a primitive pair. The bracket K[cd][tuv] is folded
// over ALL ket primitives before the bra touches it, so the bra
// contraction runs once per bra primitive, not once per primitive
// quartet, and both inner loops are AXPYs over flat arrays. Primitive
// pairs whose Gaussian overlap prefactor exp(-mu R^2) is negligible are
// dropped entirely (primitive screening), which prunes deeply contracted
// shells on distant centers.

// pairScale = sqrt(2) pi^{5/4}: each pair's share of the quartet
// prefactor 2 pi^{5/2} / (p q sqrt(p+q)).
const pairScale = 5.9149671727956128778

// hermTerm is one nonzero Hermite term of a primitive pair's density.
type hermTerm struct {
	g   float64
	ab  uint16 // component pair: (index in shell a) * nb + (index in shell b)
	h   uint16 // (t,u,v) as an index into hermIndex.off
	off uint16 // hermIndex.off[h]
}

// primPair is one surviving primitive pair of a shell pair.
type primPair struct {
	p       float64 // total exponent a + b
	x, y, z float64 // product center
	terms   []hermTerm
}

// pairData is the cached data of one (i >= j) shell pair.
type pairData struct {
	nab   int // component pairs: na * nb
	lab   int // Hermite range: t+u+v <= la + lb
	prims []primPair
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
	x := &hermIndex{lmax: lmax, count: make([]int, lmax+1)}
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
	r0, r1 []float64 // R^n and R^{n+1} cubes
	k      []float64 // K[cd][tuv]
	fn     []float64 // (-2 alpha)^n F_n
}

// newScratch sizes a scratch for quartets of total order <= lmax over
// shells of at most funcs functions: pairs reach order lmax/2.
func (x *hermIndex) newScratch(funcs int) *eriScratch {
	cube := (x.lmax + 1) * (x.lmax + 1) * (x.lmax + 1)
	return &eriScratch{
		r0: make([]float64, cube),
		r1: make([]float64, cube),
		k:  make([]float64, funcs*funcs*x.count[x.lmax/2]),
		fn: make([]float64, x.lmax+1),
	}
}

// coulomb builds the Hermite Coulomb integrals R^0_{tuv}, t+u+v <= l,
// for exponent alpha and separation d, into one of the scratch cubes:
//
//	R^n_{000}     = (-2 alpha)^n F_n(alpha |d|^2)
//	R^n_{t+1,u,v} = t R^{n+1}_{t-1,u,v} + d_x R^{n+1}_{tuv}   (etc. for u, v)
//
// Level n holds the entries of order <= l-n and reads only entries of
// order <= l-n-1 of level n+1, all of which that level wrote: the cubes
// are never cleared.
//
// d has a fourth, unused element so that d[axis&3] needs no bounds check.
func (x *hermIndex) coulomb(s *eriScratch, l int, alpha float64, d *[4]float64) []float64 {
	fn := s.fn[:l+1]
	Boys(l, alpha*(d[0]*d[0]+d[1]*d[1]+d[2]*d[2]), fn)
	pow := 1.0
	for n := range fn {
		fn[n] *= pow
		pow *= -2 * alpha
	}
	cur, prev := s.r0, s.r1
	for n := l; n >= 0; n-- {
		cur, prev = prev, cur
		cur[0] = fn[n]
		for _, st := range x.steps[:x.count[l-n]-1] {
			cur[st.dst] = d[st.axis&3]*prev[st.a] + st.coef*prev[st.b]
		}
	}
	return cur
}

// quartet writes the block (bra|ket) to out, laid out out[ab*ncd+cd].
func (x *hermIndex) quartet(bra, ket *pairData, s *eriScratch, out []float64) {
	for i := range out {
		out[i] = 0
	}
	l := bra.lab + ket.lab
	boff := x.off[:x.count[bra.lab]]
	nh, ncd := len(boff), ket.nab
	k := s.k[:ncd*nh]
	for bi := range bra.prims {
		bp := &bra.prims[bi]
		for i := range k {
			k[i] = 0
		}
		for ki := range ket.prims {
			kp := &ket.prims[ki]
			pq := bp.p + kp.p
			d := [4]float64{kp.x - bp.x, kp.y - bp.y, kp.z - bp.z}
			r := x.coulomb(s, l, bp.p*kp.p/pq, &d)
			pref := math.Sqrt(1 / pq)
			for _, t := range kp.terms {
				w := t.g * pref
				row := k[int(t.ab)*nh:][:nh]
				rk := r[t.off:]
				for h, o := range boff {
					row[h] += w * rk[o]
				}
			}
		}
		for _, t := range bp.terms {
			w := t.g * x.sign[t.h]
			row := out[int(t.ab)*ncd:][:ncd]
			kh := k[t.h:]
			for cd := range row {
				row[cd] += w * kh[cd*nh]
			}
		}
	}
}

// quartetSSSS is the all-s class: one term per primitive pair, F_0 only.
func quartetSSSS(bra, ket *pairData) float64 {
	sum := 0.0
	var f [1]float64
	for bi := range bra.prims {
		bp := &bra.prims[bi]
		ksum := 0.0
		for ki := range ket.prims {
			kp := &ket.prims[ki]
			pq := bp.p + kp.p
			dx, dy, dz := bp.x-kp.x, bp.y-kp.y, bp.z-kp.z
			Boys(0, bp.p*kp.p/pq*(dx*dx+dy*dy+dz*dz), f[:])
			ksum += kp.terms[0].g * f[0] * math.Sqrt(1/pq)
		}
		sum += bp.terms[0].g * ksum
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
			pc.PrimPairsKept += len(pd.prims)
			pc.PrimPairsDropped += len(shells[i].Exps)*len(shells[j].Exps) - len(pd.prims)
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

// build computes the Hermite pair density of shells (i, j), keeping the
// primitive pairs whose overlap prefactor reaches primTol.
func (pb *pairBuilder) build(i, j int, primTol float64) pairData {
	sa, sb := &pb.shells[i], &pb.shells[j]
	ca, cb := pb.comps[i], pb.comps[j]
	la, lb := sa.MaxL(), sb.MaxL()
	abx := sa.Center[0] - sb.Center[0]
	aby := sa.Center[1] - sb.Center[1]
	abz := sa.Center[2] - sb.Center[2]
	r2 := abx*abx + aby*aby + abz*abz
	pd := pairData{nab: len(ca) * len(cb), lab: la + lb}
	var terms []hermTerm // of all primitive pairs, back to back
	var ends []int
	for p, ap := range sa.Exps {
		for q, bq := range sb.Exps {
			pp := ap + bq
			if math.Exp(-ap*bq/pp*r2) < primTol {
				continue
			}
			ex := hermiteE(la, lb, ap, bq, abx)
			ey := hermiteE(la, lb, ap, bq, aby)
			ez := hermiteE(la, lb, ap, bq, abz)
			lo := len(terms)
			scale := pairScale / pp
			for ia, a := range ca {
				for ib, b := range cb {
					w := sa.Coefs[a.mi][p] * a.norm * sb.Coefs[b.mi][q] * b.norm * scale
					for t, et := range ex[a.lx][b.lx] {
						for u, eu := range ey[a.ly][b.ly] {
							for v, ev := range ez[a.lz][b.lz] {
								if e := et * eu * ev; e != 0 {
									h := pb.index.find(t, u, v)
									terms = append(terms, hermTerm{
										g: w * e, ab: uint16(ia*len(cb) + ib), h: h, off: pb.index.off[h],
									})
								}
							}
						}
					}
				}
			}
			if len(terms) == lo {
				continue // every term underflowed: nothing to contribute
			}
			pd.prims = append(pd.prims, primPair{
				p: pp,
				x: (ap*sa.Center[0] + bq*sb.Center[0]) / pp,
				y: (ap*sa.Center[1] + bq*sb.Center[1]) / pp,
				z: (ap*sa.Center[2] + bq*sb.Center[2]) / pp,
			})
			ends = append(ends, len(terms))
		}
	}
	lo := 0
	for n, hi := range ends {
		pd.prims[n].terms = terms[lo:hi:hi]
		lo = hi
	}
	return pd
}

// pair fetches cached data for shells (i >= j).
func (pc *PairCache) pair(i, j int) *pairData {
	return &pc.pairs[i*(i+1)/2+j]
}

// ShellQuartet computes the ERI block (ij|kl) like Engine.ShellQuartet
// but from the precomputed pair data. Shell indices must be canonical:
// i >= j and k >= l (which is how every Fock builder calls it).
func (pc *PairCache) ShellQuartet(si, sj, sk, sl int, out []float64) []float64 {
	bra, ket := pc.pair(si, sj), pc.pair(sk, sl)
	need := bra.nab * ket.nab
	if cap(out) < need {
		out = make([]float64, need)
	}
	out = out[:need]
	if bra.lab+ket.lab == 0 {
		out[0] = quartetSSSS(bra, ket)
		return out
	}
	s := pc.scratch.Get().(*eriScratch)
	pc.index.quartet(bra, ket, s, out)
	pc.scratch.Put(s)
	return out
}

// Bytes returns the cache's storage: pair records, primitive pairs and
// Hermite terms.
func (pc *PairCache) Bytes() int64 {
	total := int64(len(pc.pairs)) * int64(unsafe.Sizeof(pairData{}))
	for i := range pc.pairs {
		for _, pp := range pc.pairs[i].prims {
			total += int64(unsafe.Sizeof(pp)) + int64(len(pp.terms))*int64(unsafe.Sizeof(hermTerm{}))
		}
	}
	return total
}

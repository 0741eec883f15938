package integrals

import "math"

// The vector loops of the ERI kernel: the set-up of one bra primitive pair
// against a batch of four ket primitive pairs (pair geometry, Boys, the
// (-2 alpha)^n scale), the R recursion and the ket fold over the batch,
// the sum over the lanes, and the bra contraction. An R cube entry and a
// K entry are four consecutive floats, one per lane, so the recursion and
// the fold are one 4-wide multiply-add per entry with broadcast
// coefficients; the contraction is an AXPY along a row of K. Two bodies
// compute them: the pure-Go one below, which runs everywhere and is the
// oracle, and an AVX/FMA assembly one (lanes_amd64.s) that package init
// selects where the CPU has it. Each body runs a whole quartet's
// primitive loops in one call.

// laneBody is one implementation of the vector loops.
type laneBody struct {
	name string
	// setup fills, for a bra primitive pair of exponent p and centre c
	// against every lane of kb (padding lanes too): fn[4n+lane] =
	// (-2 alpha)^n F_n(alpha |Q-P|^2) for n <= l, d[axis][lane] = Q - P and
	// pref[lane] = (p+q)^{-1/2}, with alpha = pq/(p+q) and F from the Boys
	// table past which the asymptotic form holds (boysFrom).
	setup func(fn []float64, l int, p float64, c *[3]float64, kb *primBatch, d *[4][4]float64, pref *[4]float64, table []float64)
	// quartet adds the block (bra|ket), rows of ncd, to blk: for each bra
	// primitive pair it clears K, and for each ket batch sets up, recurs
	// the R cube of order l and folds it into K; then it sums K over the
	// lanes and contracts it with the bra terms. With a tail (a ket batch
	// of one live lane, replicated to all four), it first runs the tail
	// against the four primitive pairs of each bra batch at once, into
	// s.kt, and adds lane j of that into bra lane j's K before its sum. lb
	// is the bra's Hermite range; x and s give the tables and the scratch.
	quartet func(blk []float64, bra, ket []primBatch, tail *primBatch, l, lb, ncd int, x *hermIndex, s *eriScratch)
}

var goLanes = laneBody{name: "go", setup: setup4Go, quartet: quartet4Go}

// lanes is the body the kernel runs. It is set once, at package init; the
// tests flip it to run both bodies in one binary.
var lanes = goLanes

// quartet4Go is the loop the assembly body runs, over the Go helpers.
func quartet4Go(blk []float64, bra, ket []primBatch, tail *primBatch, l, lb, ncd int, x *hermIndex, s *eriScratch) {
	boff := x.off[:x.count[lb]]
	nh := len(boff)
	k, k4, kt := s.k[:nh*ncd], s.k4[:4*nh*ncd], s.kt[:4*nh*ncd]
	fn4 := s.fn4[:4*(l+1)]
	for bi := range bra {
		bb := &bra[bi]
		if tail != nil {
			clear(kt)
			setupPaired4Go(fn4, l, bb, tail, &s.d, &s.pref, x.boys)
			r := recur4Go(s.r0, s.r1, fn4, x.steps, x.count, l, &s.d)
			fold4Go(kt, ncd, r, boff, tail.terms, &s.pref)
		}
		for bl := 0; bl < bb.n; bl++ {
			one := broadcast(bb.p[bl], &[3]float64{bb.x[bl], bb.y[bl], bb.z[bl]})
			clear(k4)
			for ki := range ket {
				kb := &ket[ki]
				setupPaired4Go(fn4, l, &one, kb, &s.d, &s.pref, x.boys)
				r := recur4Go(s.r0, s.r1, fn4, x.steps, x.count, l, &s.d)
				fold4Go(k4, ncd, r, boff, kb.terms, &s.pref)
			}
			if tail != nil {
				for i := bl; i < len(k4); i += 4 {
					k4[i] += kt[i]
				}
			}
			sum4Go(k, k4)
			contractGo(blk, k, ncd, bb.terms, bl, x.sign)
		}
	}
}

// broadcast is the primitive pair of exponent p and centre c in all four
// lanes.
func broadcast(p float64, c *[3]float64) primBatch {
	x, y, z := c[0], c[1], c[2]
	return primBatch{p: [4]float64{p, p, p, p}, x: [4]float64{x, x, x, x}, y: [4]float64{y, y, y, y}, z: [4]float64{z, z, z, z}, n: 4}
}

func setup4Go(fn []float64, l int, p float64, c *[3]float64, kb *primBatch, d *[4][4]float64, pref *[4]float64, table []float64) {
	one := broadcast(p, c)
	setupPaired4Go(fn, l, &one, kb, d, pref, table)
}

// setupPaired4Go is the set-up of lane j of bra against lane j of kb.
func setupPaired4Go(fn []float64, l int, bra, kb *primBatch, d *[4][4]float64, pref *[4]float64, table []float64) {
	var f [maxBoysOrder + 1]float64
	for lane := 0; lane < 4; lane++ {
		p, q := bra.p[lane], kb.p[lane]
		pq := p + q
		alpha := p * q / pq
		dx, dy, dz := kb.x[lane]-bra.x[lane], kb.y[lane]-bra.y[lane], kb.z[lane]-bra.z[lane]
		d[0][lane], d[1][lane], d[2][lane] = dx, dy, dz
		pref[lane] = math.Sqrt(1 / pq)
		boysFrom(table, l, alpha*(dx*dx+dy*dy+dz*dz), f[:])
		pow := 1.0
		for n, v := range f[:l+1] {
			fn[4*n+lane] = v * pow
			pow *= -2 * alpha
		}
	}
}

// recur4Go builds the Hermite Coulomb integrals R^0_{tuv}, t+u+v <= l,
// lane by lane, into one of the two cubes and returns it:
//
//	R^n_{000}     = (-2 alpha)^n F_n(alpha |Q-P|^2)
//	R^n_{t+1,u,v} = t R^{n+1}_{t-1,u,v} + (Q-P)_x R^{n+1}_{tuv}   (etc. for u, v)
//
// from fn[4n+lane] = (-2 alpha)^n F_n and d[axis][lane] = Q - P. Level n
// holds the entries of order <= l-n and reads only entries of order
// <= l-n-1 of level n+1, all of which that level wrote: the cubes are
// never cleared. Padding lanes are computed like the others from their
// zero exponent; their values are finite and every term weight there is 0.
func recur4Go(r0, r1, fn []float64, steps []rStep, count []int, l int, d *[4][4]float64) []float64 {
	cur, prev := r0, r1
	for n := l; n >= 0; n-- {
		cur, prev = prev, cur
		copy(cur[:4], fn[4*n:])
		for _, st := range steps[:count[l-n]-1] {
			dv := &d[st.axis&3]
			c := cur[4*int(st.dst):][:4]
			a := prev[4*int(st.a):][:4]
			b := prev[4*int(st.b):][:4]
			c[0] = dv[0]*a[0] + st.coef*b[0]
			c[1] = dv[1]*a[1] + st.coef*b[1]
			c[2] = dv[2]*a[2] + st.coef*b[2]
			c[3] = dv[3]*a[3] + st.coef*b[3]
		}
	}
	return cur
}

// fold4Go adds w * R[off + boff[h]] to K[h][ab] for every term and every
// h < len(boff), lane by lane, with w = g * pref and ncd entries per row
// of K.
func fold4Go(k []float64, ncd int, r []float64, boff []uint16, terms []laneTerm, pref *[4]float64) {
	for i := range terms {
		t := &terms[i]
		w0, w1, w2, w3 := t.g[0]*pref[0], t.g[1]*pref[1], t.g[2]*pref[2], t.g[3]*pref[3]
		kt := k[4*int(t.ab):]
		rt := r[4*int(t.off):]
		for h, o := range boff {
			kv := kt[4*h*ncd:][:4]
			rv := rt[4*int(o):][:4]
			kv[0] += w0 * rv[0]
			kv[1] += w1 * rv[1]
			kv[2] += w2 * rv[2]
			kv[3] += w3 * rv[3]
		}
	}
}

// sum4Go sets k[i] = (k4[4i] + k4[4i+1]) + (k4[4i+2] + k4[4i+3]).
func sum4Go(k, k4 []float64) {
	for i := range k {
		v := k4[4*i:][:4]
		k[i] = (v[0] + v[1]) + (v[2] + v[3])
	}
}

// contractGo adds w * K[h] to blk[ab], rows of ncd, for every term, with
// w = g[lane] * sign[h].
func contractGo(blk, k []float64, ncd int, terms []laneTerm, lane int, sign []float64) {
	for i := range terms {
		t := &terms[i]
		w := t.g[lane&3] * sign[t.h]
		row := blk[int(t.ab)*ncd:][:ncd]
		for cd, v := range k[int(t.h)*ncd:][:ncd] {
			row[cd] += w * v
		}
	}
}

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
// selects where the CPU has it.

// laneBody is one implementation of the vector loops.
type laneBody struct {
	name string
	// setup fills, for a bra primitive pair of exponent p and centre c
	// against every lane of kb (padding lanes too): fn[4n+lane] =
	// (-2 alpha)^n F_n(alpha |Q-P|^2) for n <= l, d[axis][lane] = Q - P and
	// pref[lane] = (p+q)^{-1/2}, with alpha = pq/(p+q) and F from the Boys
	// table past which the asymptotic form holds (boysFrom).
	setup func(fn []float64, l int, p float64, c *[3]float64, kb *primBatch, d *[4][4]float64, pref *[4]float64, table []float64)
	// recur fills the R^0 cube of order l into r1 (l even) or r0 (l odd)
	// from fn[4n+lane] = (-2 alpha)^n F_n and d[axis][lane] = Q - P, level
	// by level as coulomb describes.
	recur func(r0, r1, fn []float64, steps []rStep, count []int, l int, d *[4][4]float64)
	// fold adds w * R[off + boff[h]] to K[h][ab] for every term and every
	// h < len(boff), lane by lane, with w = g * pref and ncd entries per
	// row of K.
	fold func(k []float64, ncd int, r []float64, boff []uint16, terms []laneTerm, pref *[4]float64)
	// sum sets k[i] = (k4[4i] + k4[4i+1]) + (k4[4i+2] + k4[4i+3]).
	sum func(k, k4 []float64)
	// contract adds w * K[h] to blk[ab], rows of ncd, for every term, with
	// w = g[lane] * sign[h].
	contract func(blk, k []float64, ncd int, terms []laneTerm, lane int, sign []float64)
}

var goLanes = laneBody{name: "go", setup: setup4Go, recur: recur4Go, fold: fold4Go, sum: sum4Go, contract: contractGo}

// lanes is the body the kernel runs. It is set once, at package init; the
// tests flip it to run both bodies in one binary.
var lanes = goLanes

func setup4Go(fn []float64, l int, p float64, c *[3]float64, kb *primBatch, d *[4][4]float64, pref *[4]float64, table []float64) {
	var f [maxBoysOrder + 1]float64
	for lane := 0; lane < 4; lane++ {
		q := kb.p[lane]
		pq := p + q
		alpha := p * q / pq
		dx, dy, dz := kb.x[lane]-c[0], kb.y[lane]-c[1], kb.z[lane]-c[2]
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

func recur4Go(r0, r1, fn []float64, steps []rStep, count []int, l int, d *[4][4]float64) {
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
}

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

func sum4Go(k, k4 []float64) {
	for i := range k {
		v := k4[4*i:][:4]
		k[i] = (v[0] + v[1]) + (v[2] + v[3])
	}
}

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

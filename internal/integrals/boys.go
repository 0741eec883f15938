// Package integrals implements the molecular integrals over contracted
// cartesian Gaussians that Hartree-Fock needs: overlap, kinetic, nuclear
// attraction, and the two-electron repulsion integrals (ERIs), using the
// McMurchie-Davidson scheme (Hermite expansion coefficients E and Hermite
// Coulomb integrals R built on the Boys function). It also provides the
// Cauchy-Schwarz screening data the paper's Algorithms 1-3 rely on.
package integrals

import (
	"math"
	"sync"
)

// maxBoysOrder is the highest Boys order the tables support; (dd|dd)
// quartets need 4*2 = 8, (ff|ff) 12, headroom is included.
const maxBoysOrder = 24

// The Boys table: F_m(t0) on the grid t0 = i*boysStep, i*boysStep <=
// boysTableMax, for every order a Taylor step from the highest callable
// order can reach. |t - t0| <= boysStep/2, so the first neglected term
// of the expansion is 0.05^8/8! ~ 1e-15 of the value. The grid ends where
// the asymptotic form needs no exp for any order: the exp(-t) tail of F_m
// falls below 1e-14 of it past t ~ 37.4 for m = 2, 52.5 for m = 8 and 83.3
// for m = 24 (past 35 for m <= 1). It is built by the first PairCache,
// Schwarz pass or scalar call that needs it, not at package init: every
// process that links this package (hfserve before its first job, every
// test binary) would otherwise pay its 0.5 ms at start.
const (
	boysStep     = 0.1
	boysNodes    = 841
	boysTableMax = (boysNodes - 1) * boysStep // 84
	boysTaylor   = 8                          // terms of the Taylor step
	boysStride   = maxBoysOrder + boysTaylor
)

var (
	boysTable     []float64
	boysTableOnce sync.Once
)

// boysTableReady builds the table on first use and returns it: boysNodes
// rows of boysStride orders, then exp(-t0) of every node (the vector body
// takes F_m(t) for m < l downward from F_l and exp(-t)).
func boysTableReady() []float64 {
	boysTableOnce.Do(func() {
		tab := make([]float64, boysNodes*(boysStride+1))
		for i := 0; i < boysNodes; i++ {
			t0 := float64(i) * boysStep
			boysSeries(boysStride-1, t0, tab[i*boysStride:])
			tab[boysNodes*boysStride+i] = math.Exp(-t0)
		}
		boysTable = tab
	})
	return boysTable
}

// Boys fills out[0..n] with the Boys functions F_0(t)..F_n(t), where
// F_m(t) = int_0^1 u^{2m} exp(-t u^2) du.
func Boys(n int, t float64, out []float64) {
	if n > maxBoysOrder {
		panic("integrals: Boys order too large")
	}
	boysFrom(boysTableReady(), n, t, out)
}

// boysFrom is Boys over a built table. Up to boysTableMax every order
// comes from its own Taylor step off the nearest grid node,
// F_m(t) = sum_k F_{m+k}(t0) (t0-t)^k / k!: the powers of (t0-t) are
// shared, and the orders are independent of each other, so there is no
// exp and no divide. Beyond it F_m = (2m-1)!!/(2t)^m * sqrt(pi/t)/2 by
// upward recursion: the exp(-t) tail is below 1e-14 of every order there.
func boysFrom(table []float64, n int, t float64, out []float64) {
	if t > boysTableMax {
		out[0] = 0.5 * math.Sqrt(math.Pi/t)
		inv := 0.5 / t // 1/(2t)
		for m := 0; m < n; m++ {
			out[m+1] = float64(2*m+1) * inv * out[m]
		}
		return
	}
	i := int(t*(1/boysStep) + 0.5)
	row := table[i*boysStride:][:n+boysTaylor]
	d := float64(i)*boysStep - t
	d2 := d * d
	if n == 0 { // one order: cheaper to scale the terms than the powers
		f := row[:boysTaylor]
		out[0] = (f[0] + d*f[1]) + d2*((f[2]*(1.0/2)+d*f[3]*(1.0/6))+
			d2*((f[4]*(1.0/24)+d*f[5]*(1.0/120))+d2*(f[6]*(1.0/720)+d*f[7]*(1.0/5040))))
		return
	}
	c2, c3 := d2*(1.0/2), d2*d*(1.0/6)
	d4 := d2 * d2
	c4, c5, c6, c7 := d4*(1.0/24), d4*d*(1.0/120), d4*d2*(1.0/720), d4*d2*d*(1.0/5040)
	out = out[:n+1]
	for m := range out {
		f := row[m:][:boysTaylor]
		// Four independent pairs, not one chain of eight.
		out[m] = ((f[0] + d*f[1]) + (c2*f[2] + c3*f[3])) + ((c4*f[4] + c5*f[5]) + (c6*f[6] + c7*f[7]))
	}
}

// boysSeries is the table's generator and the tests' reference: the exact
// limit at t ~ 0, otherwise the convergent series for the highest order
//
//	F_M(t) = exp(-t) * sum_{k>=0} (2t)^k / (2M+1)(2M+3)...(2M+2k+1)
//
// followed by the downward recursion.
func boysSeries(n int, t float64, out []float64) {
	if t < 1e-13 {
		for m := 0; m <= n; m++ {
			out[m] = 1.0 / float64(2*m+1)
		}
		return
	}
	et := math.Exp(-t)
	sum := 1.0 / float64(2*n+1)
	term := sum
	for k := 1; ; k++ {
		term *= 2 * t / float64(2*n+2*k+1)
		sum += term
		if term < 1e-17*sum {
			break
		}
	}
	out[n] = et * sum
	for m := n - 1; m >= 0; m-- {
		out[m] = (2*t*out[m+1] + et) / float64(2*m+1)
	}
}

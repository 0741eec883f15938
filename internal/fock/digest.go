package fock

import (
	"repro/internal/basis"
	"repro/internal/linalg"
)

// Density is the read side of a digest channel: one element of a
// symmetric density matrix. (*linalg.Matrix).At serves the replicated
// builds and (*distmat.TileReader).At the distributed-data build. It is
// a func and the sinks below hold raw slices because a *linalg.Matrix
// stored in an interface changes what the linker keeps and moves the hot
// loops of unrelated layers off their alignment (DESIGN.md §3.1).
type Density func(x, y int) float64

// Channel is one Fock-like matrix riding the quartet sweep:
//
//	G = CJ J(DJ) + CK K(DK)
//	J_ab = sum_cd DJ_cd (ab|cd)        K_ab = sum_cd DK_cd (ac|bd)
//
// A zero coefficient switches that half off (its density is never read).
// Every ERI block is evaluated once and contracted against all channels
// of a build in one pass. The paper's conclusion lists UHF among the
// methods that inherit its parallel structure unchanged; here that is
// literal — the presets do not know how many channels they carry.
type Channel struct {
	DJ, DK Density
	CJ, CK float64
	// out is where the preset running the build lands this channel's six
	// updates (eqs. 2a-2f).
	out sink
}

// RHF is the restricted closed-shell channel list: G = J(D) - K(D)/2.
func RHF(d Density) []Channel {
	return []Channel{{DJ: d, DK: d, CJ: 1, CK: -0.5}}
}

// UHF is the unrestricted channel list J(D_alpha + D_beta), K(D_alpha),
// K(D_beta), from which F_sigma = H + J - K_sigma. The three stay
// separate sums — not two pre-mixed G_sigma — so the spin Fock matrices
// round exactly as the SCF driver composes them: open-shell DIIS
// trajectories amplify last-bit differences into different iteration
// counts (or, for a degenerate radical like OH, a different attractor).
func UHF(dTotal, dAlpha, dBeta Density) []Channel {
	return []Channel{
		{DJ: dTotal, CJ: 1},
		{DK: dAlpha, CK: 1},
		{DK: dBeta, CK: 1},
	}
}

// bind returns a copy of chans with channel c writing to out(c).
func bind(chans []Channel, out func(c int) sink) []Channel {
	bound := make([]Channel, len(chans))
	for c := range chans {
		bound[c] = chans[c]
		bound[c].out = out(c)
	}
	return bound
}

// Update roles: which of the paper's six Fock updates (eqs. 2a-2f) a
// contribution implements. The shared-Fock algorithm routes by role.
const (
	roleAB = iota // F_ij += (ij|kl) D_kl
	roleCD        // F_kl += (ij|kl) D_ij
	roleAC        // F_ik -= (ij|kl) D_jl / 2 (exchange)
	roleBD        // F_jl -= ...
	roleAD        // F_il -= ...
	roleBC        // F_jk -= ...
)

// sink receives one channel's updates from digest: add v at the
// unordered index pair {x, y}. For roles AB/AC/AD, x is the basis
// function in shell i; for roles BD/BC, x is the basis function in shell
// j; for role CD, x is in shell k and x >= y always holds. For the other
// roles y may exceed x when shells coincide across the bra/ket boundary;
// sinks must canonicalize.
type sink interface {
	add(role, x, y int, v float64)
}

// lowerSink is the replicated sink: the canonical lower-triangle element
// of a row-major N x N accumulator, whatever the role.
type lowerSink struct {
	acc []float64
	n   int
}

func (s lowerSink) add(_, x, y int, v float64) {
	if x < y {
		x, y = y, x
	}
	s.acc[x*s.n+y] += v
}

// replicated allocates one N x N lower-triangle accumulator per channel
// and binds the channels to them.
func replicated(n int, chans []Channel) ([]*linalg.Matrix, []Channel) {
	accs := make([]*linalg.Matrix, len(chans))
	for c := range accs {
		accs[c] = linalg.NewSquare(n)
	}
	return accs, bind(chans, func(c int) sink { return lowerSink{accs[c].Data, n} })
}

// digest distributes one symmetry-unique shell quartet's ERI block into
// Fock contributions for every channel. blk is the (i j | k l) block from
// a QuartetSource. For every canonical basis-function quartet it emits
// the paper's six updates (eqs. 2a-2f) to each channel's sink, where the
// value already includes the density factor, the channel's CJ/CK and the
// symmetry weight. It is the only function that knows the in-block
// symmetry dedup, the 1/|stabilizer| weights and the diagonal doubling.
func digest(blk []float64, shells []basis.Shell, i, j, k, l int, chans []Channel) {
	if len(chans) == 0 {
		return
	}
	si, sj, sk, sl := &shells[i], &shells[j], &shells[k], &shells[l]
	ni, nj := si.NumFuncs(), sj.NumFuncs()
	nk, nl := sk.NumFuncs(), sl.NumFuncs()
	oi, oj, ok, ol := si.BFOffset, sj.BFOffset, sk.BFOffset, sl.BFOffset
	idx := 0
	for fa := 0; fa < ni; fa++ {
		a := oi + fa
		for fb := 0; fb < nj; fb++ {
			b := oj + fb
			for fc := 0; fc < nk; fc++ {
				c := ok + fc
				for fd := 0; fd < nl; fd++ {
					d := ol + fd
					val := blk[idx]
					idx++
					// Deduplicate only the symmetry images that fall INSIDE
					// this block, i.e. when shells coincide. (A global
					// canonical-BF filter would drop quartets whose BF pair
					// ordering disagrees with the shell pair ordering, e.g.
					// (aa|ca) blocks with c > a on shared centers.)
					if i == j && b > a {
						continue
					}
					if k == l && d > c {
						continue
					}
					pab, pcd := PairIndex(a, b), PairIndex(c, d)
					if i == k && j == l && pcd > pab {
						continue
					}
					if val == 0 {
						continue
					}
					s := 1.0
					if a == b {
						s *= 0.5
					}
					if c == d {
						s *= 0.5
					}
					if pab == pcd {
						s *= 0.5
					}
					// With s = 1/|stabilizer|, summing the true
					// contributions of all eight symmetry images of the
					// quartet gives, per target SLOT: Coulomb 2 s I D and
					// exchange s I D for off-diagonal slots; a diagonal
					// slot (x == y) absorbs both mirror images and
					// receives twice that (dbl).
					v := s * val
					for n := range chans {
						ch := &chans[n]
						// Coulomb (eqs. 2a, 2b)
						if cj := 2 * ch.CJ * v; cj != 0 {
							ch.out.add(roleAB, a, b, dbl(a, b)*cj*ch.DJ(c, d))
							ch.out.add(roleCD, c, d, dbl(c, d)*cj*ch.DJ(a, b))
						}
						// Exchange (eqs. 2c-2f)
						if ck := ch.CK * v; ck != 0 {
							ch.out.add(roleAC, a, c, dbl(a, c)*ck*ch.DK(b, d))
							ch.out.add(roleBD, b, d, dbl(b, d)*ck*ch.DK(a, c))
							ch.out.add(roleAD, a, d, dbl(a, d)*ck*ch.DK(b, c))
							ch.out.add(roleBC, b, c, dbl(b, c)*ck*ch.DK(a, d))
						}
					}
				}
			}
		}
	}
}

// dbl is the diagonal-doubling factor of a target slot {x, y}.
func dbl(x, y int) float64 {
	if x == y {
		return 2
	}
	return 1
}

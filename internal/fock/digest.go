package fock

import (
	"repro/internal/basis"
	"repro/internal/linalg"
)

// Density is the read side of a digest channel: it copies the nx x ny
// block of a symmetric density matrix at rows x0.., columns y0.. into dst
// (row-major, row stride ny). digest reads six such blocks per shell
// quartet and channel, one call each. Dense serves the replicated builds
// and FromTiles the distributed-data build. It is a func and the sinks
// below hold raw slices because a *linalg.Matrix stored in an interface
// changes what the linker keeps and moves the hot loops of unrelated
// layers off their alignment (DESIGN.md §3.1).
type Density func(x0, nx, y0, ny int, dst []float64)

// Dense is the Density of a replicated matrix: one row copy per block
// row.
func Dense(m *linalg.Matrix) Density {
	n, data := m.Cols, m.Data
	return func(x0, nx, y0, ny int, dst []float64) {
		for r := 0; r < nx; r++ {
			copy(dst[r*ny:r*ny+ny], data[(x0+r)*n+y0:])
		}
	}
}

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
// block implements. The shared-Fock algorithm routes by role. A role's
// complement (role^1) names the density block its update contracts
// against.
const (
	roleAB = iota // F_ij += (ij|kl) D_kl
	roleCD        // F_kl += (ij|kl) D_ij
	roleAC        // F_ik -= (ij|kl) D_jl / 2 (exchange)
	roleBD        // F_jl -= ...
	roleAD        // F_il -= ...
	roleBC        // F_jk -= ...
	numRoles
)

// roleShells is the (row, column) pair of a role's block among the
// quartet's shells (0..3 = i, j, k, l).
var roleShells = [numRoles][2]int{{0, 1}, {2, 3}, {0, 2}, {1, 3}, {0, 3}, {1, 2}}

// sink receives one channel's updates from digest, one call per block:
// add scale*blk[r*ny+c] at the unordered index pair {x0+r, y0+c}. The
// block's rows are the basis functions of one shell and its columns those
// of another: for roles AB/AC/AD the rows are shell i's, for BD/BC shell
// j's and for CD shell k's (whose columns, shell l's, never lie above
// them). For the other roles the columns may lie above the rows; when
// both shells are the same the block straddles the diagonal. Sinks must
// canonicalize. Diagonal doubling is already in blk.
type sink interface {
	addBlock(role, x0, nx, y0, ny int, scale float64, blk []float64)
}

// lowerSink is the replicated sink: the canonical lower-triangle element
// of a row-major N x N accumulator, whatever the role.
type lowerSink struct {
	acc []float64
	n   int
}

func (s lowerSink) addBlock(_, x0, nx, y0, ny int, scale float64, blk []float64) {
	addLower(s.acc, s.n, x0, nx, y0, ny, scale, blk)
}

// addLower adds scale*blk at the canonical lower-triangle slots of a
// row-major n-wide accumulator. The block's row and column shells are
// either disjoint or the same.
func addLower(acc []float64, n, x0, nx, y0, ny int, scale float64, blk []float64) {
	switch {
	case x0 >= y0+ny: // below the diagonal: one row of acc per block row
		for r := 0; r < nx; r++ {
			src := blk[r*ny : r*ny+ny]
			dst := acc[(x0+r)*n+y0:]
			dst = dst[:len(src)]
			for c, v := range src {
				dst[c] += scale * v
			}
		}
	case y0 >= x0+nx: // above it: one row of acc per block column
		for c := 0; c < ny; c++ {
			dst := acc[(y0+c)*n+x0:]
			dst = dst[:nx]
			for r := range dst {
				dst[r] += scale * blk[r*ny+c]
			}
		}
	default: // one shell's diagonal block
		for r := 0; r < nx; r++ {
			for c := 0; c < ny; c++ {
				x, y := x0+r, y0+c
				if x < y {
					x, y = y, x
				}
				acc[x*n+y] += scale * blk[r*ny+c]
			}
		}
	}
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

// scratch is a walker's digest working set for one build (the channels'
// densities are fixed while it lives): the weighted copy of a block whose
// shells coincide, the six Fock blocks of the channel being contracted,
// and per channel the six density blocks last gathered, each tagged with
// its shell pair. A row of the walker keeps i, j and k fixed, so the
// blocks of pairs ij, ik and jk are gathered once per row, not per
// quartet.
type scratch struct {
	nf   []int // basis functions per shell
	w    []float64
	f    [numRoles][]float64
	held []heldBlocks // per channel
}

type heldBlocks struct {
	key [numRoles]int // 1 + the block's shell pair in row-major order; 0 = none
	d   [numRoles][]float64
}

// init sizes s for blocks of shells and n channels: one backing array
// holds the weighted block, the Fock blocks and every channel's density
// blocks.
func (s *scratch) init(shells []basis.Shell, n int) {
	s.nf = make([]int, len(shells))
	m := 0
	for sh := range shells {
		s.nf[sh] = shells[sh].NumFuncs()
		m = max(m, s.nf[sh])
	}
	buf := make([]float64, m*m*m*m+(1+n)*numRoles*m*m)
	next := func(size int) []float64 {
		b := buf[:size:size]
		buf = buf[size:]
		return b
	}
	s.w = next(m * m * m * m)
	for r := range s.f {
		s.f[r] = next(m * m)
	}
	s.held = make([]heldBlocks, n)
	for c := range s.held {
		for r := range s.held[c].d {
			s.held[c].d[r] = next(m * m)
		}
	}
}

// digest distributes one symmetry-unique shell quartet's ERI block into
// Fock contributions for every channel. blk is the (i j | k l) block from
// a QuartetSource. Per channel it gathers the six density blocks the
// paper's six updates (eqs. 2a-2f) read, contracts the block against them
// into six Fock blocks and hands each to the channel's sink with the
// channel's CJ/CK, one call per block. It and its helper weigh are the
// only code that knows the in-block symmetry dedup, the 1/|stabilizer|
// weights and the diagonal doubling.
func digest(blk []float64, shells []basis.Shell, i, j, k, l int, chans []Channel, sc *scratch) {
	if len(chans) == 0 {
		return
	}
	if len(sc.held) != len(chans) {
		sc.init(shells, len(chans))
	}
	q := [4]int{i, j, k, l}
	var off, num [4]int
	for s, sh := range q {
		off[s], num[s] = shells[sh].BFOffset, sc.nf[sh]
	}
	ni, nj, nk, nl := num[0], num[1], num[2], num[3]
	w := blk[:ni*nj*nk*nl]
	if i == j || k == l || (i == k && j == l) {
		w = weigh(sc.w[:len(w)], w, num, i == j, k == l, i == k && j == l)
	}
	var f [numRoles][]float64
	for r, p := range roleShells {
		f[r] = sc.f[r][:num[p[0]]*num[p[1]]]
	}

	// scatter hands role r's Fock block to the sink, doubling the
	// diagonal of a block whose two shells are the same: that slot
	// absorbs both mirror images of the update.
	scatter := func(out sink, r int, scale float64) {
		a, b := roleShells[r][0], roleShells[r][1]
		if q[a] == q[b] {
			for x := 0; x < num[a]; x++ {
				f[r][x*num[a]+x] *= 2
			}
		}
		out.addBlock(r, off[a], num[a], off[b], num[b], scale, f[r])
	}
	// gather returns the density block of role r, reading it only if the
	// channel does not hold it already.
	gather := func(h *heldBlocks, dens Density, r int) []float64 {
		a, b := roleShells[r][0], roleShells[r][1]
		d := h.d[r][:num[a]*num[b]]
		if key := 1 + q[a]*len(shells) + q[b]; h.key[r] != key {
			dens(off[a], num[a], off[b], num[b], d)
			h.key[r] = key
		}
		return d
	}

	for n := range chans {
		ch, h := &chans[n], &sc.held[n]
		// Coulomb (eqs. 2a, 2b). With s = 1/|stabilizer| folded into w,
		// the eight symmetry images of a quartet give an off-diagonal
		// slot 2 s I D (Coulomb) and s I D (exchange).
		if ch.CJ != 0 {
			dab, dcd := gather(h, ch.DJ, roleAB), gather(h, ch.DJ, roleCD)
			clear(f[roleCD])
			coulomb(w, dab, dcd, f[roleAB], f[roleCD])
			scatter(ch.out, roleAB, 2*ch.CJ)
			scatter(ch.out, roleCD, 2*ch.CJ)
		}
		// Exchange (eqs. 2c-2f)
		if ch.CK != 0 {
			var d [numRoles][]float64
			for r := roleAC; r < numRoles; r++ {
				d[r] = gather(h, ch.DK, r)
				clear(f[r])
			}
			exchange(w, ni, nj, nk, nl, &d, &f)
			for r := roleAC; r < numRoles; r++ {
				scatter(ch.out, r, ch.CK)
			}
		}
	}
}

// weigh copies the (ij|kl) block w into dst with the symmetry images
// that fall INSIDE the block zeroed and every survivor scaled by
// 1/|stabilizer| (a factor 1/2 per coinciding pair). Images fall inside
// only when shells coincide, and then local indices order the basis
// functions as global ones do. (A global canonical-BF filter would drop
// quartets whose BF pair ordering disagrees with the shell pair ordering,
// e.g. (aa|ca) blocks with c > a on shared centers.)
func weigh(dst, w []float64, num [4]int, iEqJ, kEqL, ijEqKL bool) []float64 {
	copy(dst, w)
	nj, nk, nl := num[1], num[2], num[3]
	nkl := nk * nl
	for ab := 0; ab*nkl < len(dst); ab++ {
		row := dst[ab*nkl : ab*nkl+nkl]
		fa, fb := ab/nj, ab%nj
		if iEqJ && fb > fa {
			clear(row)
			continue
		}
		if iEqJ && fb == fa {
			for x := range row {
				row[x] *= 0.5
			}
		}
		if kEqL {
			for fc := 0; fc < nk; fc++ {
				clear(row[fc*nl+fc+1 : fc*nl+nl])
				row[fc*nl+fc] *= 0.5
			}
		}
		// ij == kl: the (c, d) pair against (a, b) in pair order, which
		// is the order of ab and cd as row and column indices.
		if ijEqKL {
			clear(row[ab+1:])
			row[ab] *= 0.5
		}
	}
	return dst
}

// coulomb contracts the weighted block w, row ab over columns cd, into
// fab[ab] = sum_cd w dcd[cd] and fcd[cd] += sum_ab w dab[ab].
func coulomb(w, dab, dcd, fab, fcd []float64) {
	nkl := len(dcd)
	for ab := range fab {
		row := w[ab*nkl : ab*nkl+nkl]
		dcd, fcd := dcd[:len(row)], fcd[:len(row)]
		dv, s := dab[ab], 0.0
		for cd, v := range row {
			s += v * dcd[cd]
			fcd[cd] += v * dv
		}
		fab[ab] = s
	}
}

// exchange contracts the weighted block w[a,b,c,d] into the four
// exchange Fock blocks, one row over d at a time:
//
//	F_ac += w D_bd    F_bd += w D_ac    F_ad += w D_bc    F_bc += w D_ad
func exchange(w []float64, ni, nj, nk, nl int, d, f *[numRoles][]float64) {
	dAC, dBD, dAD, dBC := d[roleAC], d[roleBD], d[roleAD], d[roleBC]
	fAC, fBD, fAD, fBC := f[roleAC], f[roleBD], f[roleAD], f[roleBC]
	for a := 0; a < ni; a++ {
		dad, fad := dAD[a*nl:a*nl+nl], fAD[a*nl:a*nl+nl]
		for b := 0; b < nj; b++ {
			dbd, fbd := dBD[b*nl:b*nl+nl], fBD[b*nl:b*nl+nl]
			for c := 0; c < nk; c++ {
				base := ((a*nj+b)*nk + c) * nl
				row := w[base : base+nl]
				dad, fad, dbd, fbd := dad[:len(row)], fad[:len(row)], dbd[:len(row)], fbd[:len(row)]
				dac, dbc := dAC[a*nk+c], dBC[b*nk+c]
				var sac, sbc float64
				for x, v := range row {
					sac += v * dbd[x]
					sbc += v * dad[x]
					fbd[x] += v * dac
					fad[x] += v * dbc
				}
				fAC[a*nk+c] += sac
				fBC[b*nk+c] += sbc
			}
		}
	}
}

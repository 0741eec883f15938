package fock

import (
	"repro/internal/basis"
	"repro/internal/linalg"
)

// blocking is the shell-blocked layout of every density and Fock
// accumulator a build keeps: block (a, b) holds shell a's basis functions
// against shell b's, num[a] x num[b] row-major, and starts at
// n·off[a] + num[a]·off[b]. Shell a's block row is therefore the one
// contiguous num[a] x n span at n·off[a], and any block is a slice.
type blocking struct {
	n        int   // basis functions
	off, num []int // per shell: first basis function, basis functions
	maxNum   int   // the largest shell
}

func newBlocking(shells []basis.Shell) *blocking {
	lay := &blocking{off: make([]int, len(shells)), num: make([]int, len(shells))}
	for s := range shells {
		lay.off[s], lay.num[s] = shells[s].BFOffset, shells[s].NumFuncs()
		lay.n += lay.num[s]
		lay.maxNum = max(lay.maxNum, lay.num[s])
	}
	return lay
}

// start is where block (a, b) begins.
func (lay *blocking) start(a, b int) int { return lay.n*lay.off[a] + lay.num[a]*lay.off[b] }

// block is block (a, b) of the blocked matrix m.
func (lay *blocking) block(m []float64, a, b int) []float64 {
	s := lay.start(a, b)
	return m[s : s+lay.num[a]*lay.num[b]]
}

// rowBlock is block (a, b) of row, a copy of shell a's block row.
func (lay *blocking) rowBlock(row []float64, a, b int) []float64 {
	s := lay.num[a] * lay.off[b]
	return row[s : s+lay.num[a]*lay.num[b]]
}

// fromDense stores the row-major n x n matrix src shell-blocked into dst.
func (lay *blocking) fromDense(dst, src []float64) {
	for a, oa := range lay.off {
		na := lay.num[a]
		for b, ob := range lay.off {
			nb := lay.num[b]
			blk := lay.block(dst, a, b)
			for r := 0; r < na; r++ {
				copy(blk[r*nb:r*nb+nb], src[(oa+r)*lay.n+ob:])
			}
		}
	}
}

// finalize closes a build: the symmetric matrix F = G + Gᵀ of the
// blocked accumulator g, row-major. The digest lands each update on
// whichever side of the diagonal its block lies, so an off-diagonal slot
// sums both sides and a diagonal slot becomes 2·G_xx — the doubling by
// which it absorbs both mirror images of an update.
func (lay *blocking) finalize(g []float64) *linalg.Matrix {
	f := linalg.NewSquare(lay.n)
	for a, oa := range lay.off {
		na := lay.num[a]
		for b, ob := range lay.off[:a+1] {
			nb := lay.num[b]
			ab, ba := lay.block(g, a, b), lay.block(g, b, a)
			for r := 0; r < na; r++ {
				row := f.Data[(oa+r)*lay.n+ob:]
				for c := 0; c < nb; c++ {
					v := ab[r*nb+c] + ba[c*na+r]
					row[c] = v
					f.Data[(ob+c)*lay.n+oa+r] = v
				}
			}
		}
	}
	return f
}

// Density is the read side of a digest channel: a symmetric density
// matrix, six blocks of which the digest reads per shell quartet. Dense
// is a replicated matrix, which every build stores shell-blocked into
// its builder's buffers before its walk (blockDensities) so the digest
// reads its blocks as slices; FromTiles is a distributed one, whose blocks are copied out
// through a tile reader. It holds raw slices and a func, not a
// *linalg.Matrix: a *linalg.Matrix stored in an interface changes what
// the linker keeps and moves the hot loops of unrelated layers off their
// alignment (DESIGN.md §3.1).
type Density struct {
	dense   []float64                               // row-major N x N (Dense)
	blocked []float64                               // dense, shell-blocked
	read    func(x0, nx, y0, ny int, dst []float64) // FromTiles
}

// Dense is the Density of a replicated matrix.
func Dense(m *linalg.Matrix) Density { return Density{dense: m.Data} }

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

// Update roles: which of the paper's six Fock updates (eqs. 2a-2f) a
// block implements. The shared-Fock algorithm routes by role.
const (
	roleAB = iota // F_ij += (ij|kl) D_kl
	roleCD        // F_kl += (ij|kl) D_ij
	roleAC        // F_ik -= (ij|kl) D_jl / 2 (exchange)
	roleBD        // F_jl -= ...
	roleAD        // F_il -= ...
	roleBC        // F_jk -= ...
	numRoles
)

// sink is where one channel's updates land. block hands the digest the
// Fock block of a role — shell a's functions against shell b's, row-major
// — to add into: the rows are shell i's for roles AB/AC/AD, shell j's for
// BD/BC and shell k's for CD. The digest only ever adds (+=) into a
// handed block, so two roles may be handed the same one (k == l, i == j,
// ij == kl). done closes the channel's share of the quartet.
type sink interface {
	block(role, a, b int) []float64
	done()
}

// blockSink is the replicated sink: a blocked N x N accumulator, handed
// out in place whatever the role.
type blockSink struct {
	lay *blocking
	g   []float64
}

func (s *blockSink) block(_, a, b int) []float64 { return s.lay.block(s.g, a, b) }
func (s *blockSink) done()                       {}

// replicated gives every lane one blocked N x N accumulator per channel:
// gs[lane][channel].
func (b *Builder) replicated(nchan int) {
	b.gs = make([][][]float64, len(b.lanes))
	for t := range b.gs {
		b.gs[t] = make([][]float64, nchan)
		for c := range b.gs[t] {
			b.gs[t][c] = make([]float64, b.lay.n*b.lay.n)
			b.lanes[t].chans[c].out = &blockSink{b.lay, b.gs[t][c]}
		}
		b.acc = append(b.acc, b.gs[t]...)
	}
}

// scratch is a walker's digest working set: the weighted copy of a block
// whose shells coincide, and per role the density block a tile-backed
// channel last copied out.
type scratch struct {
	w []float64
	d [numRoles][]float64
}

// density returns block (a, b) of d: a slice of its blocked copy, or for
// a tile-backed density role r's scratch, filled through its reader.
func (sc *scratch) density(d *Density, lay *blocking, r, a, b int) []float64 {
	if d.blocked != nil {
		return lay.block(d.blocked, a, b)
	}
	if sc.d[r] == nil {
		sc.d[r] = make([]float64, lay.maxNum*lay.maxNum)
	}
	dst := sc.d[r][:lay.num[a]*lay.num[b]]
	d.read(lay.off[a], lay.num[a], lay.off[b], lay.num[b], dst)
	return dst
}

// digest distributes one symmetry-unique shell quartet's ERI block into
// Fock contributions for every channel. blk is the (i j | k l) block from
// a QuartetSource. Per channel it reads the six density blocks the
// paper's six updates (eqs. 2a-2f) contract against and adds the six
// contributions, CJ/CK applied, into the blocks the channel's sink hands
// it, then closes the channel's quartet. It and its helper weigh are the
// only code that knows the in-block symmetry dedup and the
// 1/|stabilizer| weights; the diagonal doubling is finalize's, once per
// build.
func digest(blk []float64, lay *blocking, i, j, k, l int, chans []Channel, sc *scratch) {
	num := [4]int{lay.num[i], lay.num[j], lay.num[k], lay.num[l]}
	ni, nj, nk, nl := num[0], num[1], num[2], num[3]
	w := blk[:ni*nj*nk*nl]
	if i == j || k == l || (i == k && j == l) {
		if len(sc.w) < len(w) {
			sc.w = make([]float64, lay.maxNum*lay.maxNum*lay.maxNum*lay.maxNum)
		}
		w = weigh(sc.w[:len(w)], w, num, i == j, k == l, i == k && j == l)
	}
	for n := range chans {
		ch := &chans[n]
		out := ch.out
		// Coulomb (eqs. 2a, 2b). With s = 1/|stabilizer| folded into w,
		// the eight symmetry images of a quartet give an off-diagonal
		// slot 2 s I D (Coulomb) and s I D (exchange).
		if ch.CJ != 0 {
			coulomb(w, sc.density(&ch.DJ, lay, roleAB, i, j), sc.density(&ch.DJ, lay, roleCD, k, l),
				out.block(roleAB, i, j), out.block(roleCD, k, l), 2*ch.CJ)
		}
		// Exchange (eqs. 2c-2f)
		if ch.CK != 0 {
			var d, f [numRoles][]float64
			d[roleAC], f[roleAC] = sc.density(&ch.DK, lay, roleAC, i, k), out.block(roleAC, i, k)
			d[roleBD], f[roleBD] = sc.density(&ch.DK, lay, roleBD, j, l), out.block(roleBD, j, l)
			d[roleAD], f[roleAD] = sc.density(&ch.DK, lay, roleAD, i, l), out.block(roleAD, i, l)
			d[roleBC], f[roleBC] = sc.density(&ch.DK, lay, roleBC, j, k), out.block(roleBC, j, k)
			exchange(w, ni, nj, nk, nl, &d, &f, ch.CK)
		}
		out.done()
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
// fab[ab] += cj sum_cd w dcd[cd] and fcd[cd] += cj sum_ab w dab[ab]. fab
// and fcd may be one block.
func coulomb(w, dab, dcd, fab, fcd []float64, cj float64) {
	nkl := len(dcd)
	for ab := range fab {
		row := w[ab*nkl : ab*nkl+nkl]
		dcd, fcd := dcd[:len(row)], fcd[:len(row)]
		dv, s := cj*dab[ab], 0.0
		for cd, v := range row {
			s += v * dcd[cd]
			fcd[cd] += v * dv
		}
		fab[ab] += cj * s
	}
}

// exchange contracts the weighted block w[a,b,c,d] into the four
// exchange Fock blocks, one row over d at a time, each scaled by ck:
//
//	F_ac += w D_bd    F_bd += w D_ac    F_ad += w D_bc    F_bc += w D_ad
//
// Fock blocks may coincide (i == j, k == l); every update is a separate
// read-modify-write of its element.
func exchange(w []float64, ni, nj, nk, nl int, d, f *[numRoles][]float64, ck float64) {
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
				dac, dbc := ck*dAC[a*nk+c], ck*dBC[b*nk+c]
				var sac, sbc float64
				for x, v := range row {
					sac += v * dbd[x]
					sbc += v * dad[x]
					fbd[x] += v * dac
					fad[x] += v * dbc
				}
				fAC[a*nk+c] += ck * sac
				fBC[b*nk+c] += ck * sbc
			}
		}
	}
}

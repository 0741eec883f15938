package integrals

import (
	"math"

	"repro/internal/basis"
	"repro/internal/linalg"
	"repro/internal/molecule"
)

// Engine evaluates integrals over a built basis. It is stateless apart
// from the basis reference, so one Engine can be shared by any number of
// goroutines; per-thread scratch is passed explicitly where needed.
type Engine struct {
	Basis *basis.Basis
}

// NewEngine returns an integral engine over b.
func NewEngine(b *basis.Basis) *Engine { return &Engine{Basis: b} }

// Overlap returns the AO overlap matrix S.
func (e *Engine) Overlap() *linalg.Matrix { return e.oneMatrix(1 << termS) }

// Kinetic returns the kinetic energy matrix T.
func (e *Engine) Kinetic() *linalg.Matrix { return e.oneMatrix(1 << termT) }

// Nuclear returns the nuclear attraction matrix V (negative definite
// contributions from every nucleus).
func (e *Engine) Nuclear() *linalg.Matrix { return e.oneMatrix(1 << termV) }

// CoreHamiltonian returns H = T + V, both from one walk.
func (e *Engine) CoreHamiltonian() *linalg.Matrix { return e.oneMatrix(1<<termT | 1<<termV) }

// The terms of the one-electron walk, bits of its selection: overlap,
// kinetic energy, nuclear attraction, and the three dipole moments.
const (
	termS = iota
	termT
	termV
	termM  // x; y and z follow
	nTerms = termM + 3
)

// oneMatrix returns the sum of the selected terms' matrices.
func (e *Engine) oneMatrix(sel uint) *linalg.Matrix {
	m := linalg.NewSquare(e.Basis.NumBF)
	e.oneElectron(sel, [3]float64{}, func(sa, sb *basis.Shell, blk *[nTerms][]float64) {
		var sum []float64
		for k, b := range blk {
			switch {
			case sel&(1<<k) == 0:
			case sum == nil:
				sum = b
			default:
				for x, v := range b {
					sum[x] += v
				}
			}
		}
		setBlock(m, sa, sb, sum)
	})
	return m
}

// setBlock stores the block of shells (sa, sb), rows of nb, and its
// transpose in m.
func setBlock(m *linalg.Matrix, sa, sb *basis.Shell, blk []float64) {
	na, nb := sa.NumFuncs(), sb.NumFuncs()
	for fa := 0; fa < na; fa++ {
		for fb := 0; fb < nb; fb++ {
			v := blk[fa*nb+fb]
			m.Set(sa.BFOffset+fa, sb.BFOffset+fb, v)
			m.Set(sb.BFOffset+fb, sa.BFOffset+fa, v)
		}
	}
}

// shellComponents enumerates the (moment index, l, lx, ly, lz, norm) tuples
// of a shell in basis-function order.
type component struct {
	l, lx, ly, lz int
	mi            int     // moment index into Coefs
	norm          float64 // cartesian component normalization factor
}

func componentsOf(s *basis.Shell) []component {
	out := make([]component, 0, s.NumFuncs())
	for mi, l := range s.Moments {
		for _, c := range basis.CartComponents(l) {
			out = append(out, component{
				l: l, lx: c[0], ly: c[1], lz: c[2], mi: mi,
				norm: basis.CartNormFactor(c[0], c[1], c[2]),
			})
		}
	}
	return out
}

// oneElectron is the one walk behind every one-electron matrix. For each
// shell pair (i >= j) and primitive pair it fills one E table per axis (two
// more orders on b for T) and adds the selected terms of every component
// pair into the pair's blocks, rows of nb, handed to emit. With
//
//	S_ab = c (pi/p)^{3/2} E_0 E_0 E_0
//	T_ab = c (Tx Sy Sz + Sx Ty Sz + Sx Sy Tz), with 1D overlaps S = E_0 sqrt(pi/p) and
//	       T_ij = -2 b^2 S_{i,j+2} + b(2j+1) S_{ij} - j(j-1)/2 S_{i,j-2}
//	V_ab = c (2 pi/p) sum_tuv E_t E_u E_v sum_C -Z_C R_tuv(p, P - C)
//	M_ab = c Mx Sy Sz (likewise y, z), <a| x |b> = (E_1 + X_PO E_0) sqrt(pi/p)
//
// for c = c_a N_a c_b N_b, moments about origin. V contracts the E tables
// once per primitive pair, against all nuclei summed (nuclearR).
func (e *Engine) oneElectron(sel uint, origin [3]float64, emit func(sa, sb *basis.Shell, blk *[nTerms][]float64)) {
	b := e.Basis
	lmax, nf := b.MaxL(), b.ShellSizeMax()
	comps := make([][]component, len(b.Shells))
	for i := range b.Shells {
		comps[i] = componentsOf(&b.Shells[i])
	}
	has := func(k int) bool { return sel&(1<<k) != 0 }
	headroom := 0 // on b, for the j+2 shift of T
	if has(termT) {
		headroom = 2
	}
	var nuc *nuclearR
	if has(termV) {
		nuc = newNuclearR(b.Mol.Atoms, 2*lmax)
	}
	var blk [nTerms][]float64
	store := make([]float64, nTerms*nf*nf)
	ebuf := make([]float64, 3*hermESize(lmax, lmax+headroom))
	n1 := (lmax + 1) * (lmax + 1)
	tab := make([]float64, 9*n1) // 1D S, T and M per axis, [i*(lb+1)+j]
	s1, t1, m1 := tab[:3*n1], tab[3*n1:6*n1], tab[6*n1:]
	for i := range b.Shells {
		for j := 0; j <= i; j++ {
			sa, sb := &b.Shells[i], &b.Shells[j]
			ca, cb := comps[i], comps[j]
			la, lb := sa.MaxL(), sb.MaxL()
			for k := range blk {
				if has(k) {
					blk[k] = store[k*nf*nf:][:len(ca)*len(cb)]
					clear(blk[k])
				}
			}
			var ab [3]float64
			for x := range ab {
				ab[x] = sa.Center[x] - sb.Center[x]
			}
			for p, ap := range sa.Exps {
				for q, bq := range sb.Exps {
					pp := ap + bq
					et := newPairE(la, lb, headroom, ap, bq, ab, ebuf)
					var pref, sq float64
					if has(termS) {
						pref = math.Pow(math.Pi/pp, 1.5)
					}
					if has(termT) || has(termM) {
						sq = math.Sqrt(math.Pi / pp)
					}
					var pc [3]float64 // the product centre P
					for x := range pc {
						pc[x] = (ap*sa.Center[x] + bq*sb.Center[x]) / pp
					}
					for x := range 3 {
						for ii := 0; ii <= la; ii++ {
							for jj := 0; jj <= lb; jj++ {
								at := x*n1 + ii*(lb+1) + jj
								e0 := et[x].at(ii, jj, 0)
								s1[at] = e0 * sq
								if has(termT) {
									v := -2 * bq * bq * (et[x].at(ii, jj+2, 0) * sq)
									v += bq * float64(2*jj+1) * s1[at]
									if jj >= 2 {
										v -= 0.5 * float64(jj) * float64(jj-1) * s1[at-2]
									}
									t1[at] = v
								}
								if has(termM) {
									e1 := 0.0
									if ii+jj >= 1 {
										e1 = et[x].at(ii, jj, 1)
									}
									m1[at] = (e1 + (pc[x]-origin[x])*e0) * sq
								}
							}
						}
					}
					vpref := 2 * math.Pi / pp
					if nuc != nil {
						nuc.fill(la+lb, pp, &pc)
					}
					for ia, a := range ca {
						caw := sa.Coefs[a.mi][p] * a.norm
						for ib, b := range cb {
							w := caw * sb.Coefs[b.mi][q] * b.norm
							k := ia*len(cb) + ib
							ix := [3]int{a.lx*(lb+1) + b.lx, n1 + a.ly*(lb+1) + b.ly, 2*n1 + a.lz*(lb+1) + b.lz} // into s1, t1, m1
							if has(termS) {
								blk[termS][k] += w * pref * et[0].at(a.lx, b.lx, 0) * et[1].at(a.ly, b.ly, 0) * et[2].at(a.lz, b.lz, 0)
							}
							if has(termT) {
								sx, sy, sz := s1[ix[0]], s1[ix[1]], s1[ix[2]]
								blk[termT][k] += w * (t1[ix[0]]*sy*sz + sx*t1[ix[1]]*sz + sx*sy*t1[ix[2]])
							}
							if nuc != nil {
								blk[termV][k] += vpref * w * nuc.contract(&et, &a, &b)
							}
							if has(termM) {
								for x := range 3 {
									v := w
									for y := range 3 {
										if y == x {
											v *= m1[ix[y]]
										} else {
											v *= s1[ix[y]]
										}
									}
									blk[termM+x][k] += v
								}
							}
						}
					}
				}
			}
			emit(sa, sb, &blk)
		}
	}
}

// nuclearR is what V needs beyond the E tables: the Hermite Coulomb
// integrals of a primitive pair against every nucleus, weighted by -Z_C and
// summed into one table, each nucleus through the ERI kernel's R recursion
// (hermIndex.steps) on one lane: four lanes of nuclei measured no faster.
type nuclearR struct {
	x         *hermIndex
	atoms     []molecule.Atom
	r0, r1, r []float64 // R cubes of stride x.lmax+1: recursion levels, the sum
}

func newNuclearR(atoms []molecule.Atom, lmax int) *nuclearR {
	cube := (lmax + 1) * (lmax + 1) * (lmax + 1)
	buf := make([]float64, 3*cube)
	return &nuclearR{x: newHermIndex(lmax), atoms: atoms, r0: buf[:cube], r1: buf[cube : 2*cube], r: buf[2*cube:]}
}

// fill sets r[(t,u,v)] = sum_C -Z_C R^0_tuv(p, P - C) for t+u+v <= l,
// where pc is P:
//
//	R^n_{000}     = (-2p)^n F_n(p |P-C|^2)
//	R^n_{t+1,u,v} = t R^{n+1}_{t-1,u,v} + (P-C)_x R^{n+1}_{tuv}   (etc. for u, v)
//
// with F from the kernel's Boys table and the powers of -2p by
// multiplication. Level n reads only entries of order <= l-n-1 of level
// n+1, all of which that level wrote, so the cubes are never cleared.
func (n *nuclearR) fill(l int, p float64, pc *[3]float64) {
	x := n.x
	off := x.off[:x.count[l]]
	for _, o := range off {
		n.r[o] = 0
	}
	var f [maxBoysOrder + 1]float64
	for c := range n.atoms {
		at := &n.atoms[c]
		var d [3]float64
		for k := range d {
			d[k] = pc[k] - at.Pos[k]
		}
		boysFrom(x.boys, l, p*(d[0]*d[0]+d[1]*d[1]+d[2]*d[2]), f[:])
		pow := 1.0
		for m := range f[:l+1] {
			f[m] *= pow
			pow *= -2 * p
		}
		cur, prev := n.r0, n.r1
		for m := l; m >= 0; m-- {
			cur, prev = prev, cur
			cur[0] = f[m]
			for _, st := range x.steps[:x.count[l-m]-1] {
				cur[st.dst] = d[st.axis]*prev[st.a] + st.coef*prev[st.b]
			}
		}
		z := -float64(at.Z)
		for _, o := range off {
			n.r[o] += z * cur[o]
		}
	}
}

// contract returns sum_tuv E_t E_u E_v r[(t,u,v)] of the component pair
// (a, b).
func (n *nuclearR) contract(e *pairE, a, b *component) float64 {
	s := n.x.lmax + 1
	sum := 0.0
	for t := 0; t <= a.lx+b.lx; t++ {
		ext := e[0].at(a.lx, b.lx, t)
		if ext == 0 {
			continue
		}
		for u := 0; u <= a.ly+b.ly; u++ {
			eyu := e[1].at(a.ly, b.ly, u)
			if eyu == 0 {
				continue
			}
			row := n.r[(t*s+u)*s:]
			for v := 0; v <= a.lz+b.lz; v++ {
				sum += ext * eyu * e[2].at(a.lz, b.lz, v) * row[v]
			}
		}
	}
	return sum
}

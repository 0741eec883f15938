// Package basis implements contracted Gaussian basis sets: shells
// (including the fused L = SP shells GAMESS uses for Pople bases),
// normalization, and the built-in STO-3G and 6-31G(d) data needed for the
// paper's benchmark systems and the test molecules.
package basis

import (
	"fmt"
	"math"

	"repro/internal/molecule"
)

// Angular momentum labels for the moments a shell can carry.
const (
	S = 0
	P = 1
	D = 2
	F = 3
)

// NumCart returns the number of cartesian components for angular momentum l
// ((l+1)(l+2)/2, e.g. 6 cartesian d functions — the paper's 6-31G(d)
// carbon has 15 = 1 + 4 + 6 basis functions over its 4 shells).
func NumCart(l int) int { return (l + 1) * (l + 2) / 2 }

// CartComponents returns the (lx, ly, lz) exponent triples for angular
// momentum l in GAMESS ordering: s; x,y,z; xx,yy,zz,xy,xz,yz; and a
// deterministic lexicographic order for l >= 3.
func CartComponents(l int) [][3]int {
	switch l {
	case 0:
		return [][3]int{{0, 0, 0}}
	case 1:
		return [][3]int{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	case 2:
		return [][3]int{{2, 0, 0}, {0, 2, 0}, {0, 0, 2}, {1, 1, 0}, {1, 0, 1}, {0, 1, 1}}
	default:
		var out [][3]int
		for lx := l; lx >= 0; lx-- {
			for ly := l - lx; ly >= 0; ly-- {
				out = append(out, [3]int{lx, ly, l - lx - ly})
			}
		}
		return out
	}
}

// DoubleFactorial returns (2n-1)!! for n >= 0 (with (-1)!! = 1).
func DoubleFactorial(n int) float64 {
	v := 1.0
	for k := 2*n - 1; k > 1; k -= 2 {
		v *= float64(k)
	}
	return v
}

// CartNormFactor returns the normalization factor of cartesian component
// (lx, ly, lz) relative to the axial component (l, 0, 0):
// sqrt((2l-1)!! / ((2lx-1)!! (2ly-1)!! (2lz-1)!!)). For d it is 1 for
// xx/yy/zz and sqrt(3) for xy/xz/yz.
func CartNormFactor(lx, ly, lz int) float64 {
	l := lx + ly + lz
	return math.Sqrt(DoubleFactorial(l) /
		(DoubleFactorial(lx) * DoubleFactorial(ly) * DoubleFactorial(lz)))
}

// primitiveNorm returns the normalization constant of a primitive cartesian
// Gaussian x^l exp(-a r^2) for the axial component (l, 0, 0).
func primitiveNorm(a float64, l int) float64 {
	return math.Pow(2*a/math.Pi, 0.75) * math.Pow(4*a, float64(l)/2) /
		math.Sqrt(DoubleFactorial(l))
}

// Shell is a contracted Gaussian shell on one atomic center. A shell may
// carry several angular momenta sharing the same primitives: the Pople
// L shell carries [S, P]. GAMESS counts such a fused shell as ONE shell,
// which is what the paper's NShells loop bounds refer to.
type Shell struct {
	Atom     int        // index into the molecule's atom list
	Center   [3]float64 // bohr
	Moments  []int      // angular momenta carried, e.g. [0], [0,1], [2]
	Exps     []float64  // primitive exponents
	Coefs    [][]float64
	BFOffset int // index of this shell's first basis function
}

// NumFuncs returns the number of basis functions the shell contributes.
func (s *Shell) NumFuncs() int {
	n := 0
	for _, l := range s.Moments {
		n += NumCart(l)
	}
	return n
}

// MaxL returns the largest angular momentum carried by the shell.
func (s *Shell) MaxL() int {
	m := 0
	for _, l := range s.Moments {
		if l > m {
			m = l
		}
	}
	return m
}

// normalize folds the primitive norms into the contraction coefficients and
// rescales so each moment's axial component has unit self-overlap.
func (s *Shell) normalize() {
	for mi, l := range s.Moments {
		cs := s.Coefs[mi]
		for p, a := range s.Exps {
			cs[p] *= primitiveNorm(a, l)
		}
		// Self-overlap of the contracted (l,0,0) function.
		self := 0.0
		for p, ap := range s.Exps {
			for q, aq := range s.Exps {
				g := ap + aq
				ov := DoubleFactorial(l) / math.Pow(2*g, float64(l)) *
					math.Pow(math.Pi/g, 1.5)
				self += cs[p] * cs[q] * ov
			}
		}
		scale := 1 / math.Sqrt(self)
		for p := range cs {
			cs[p] *= scale
		}
	}
}

// Basis is a built basis: the ordered shells over a molecule and the
// resulting basis-function dimension.
type Basis struct {
	Mol    *molecule.Molecule
	Shells []Shell
	NumBF  int
	Name   string
}

// MaxL returns the largest angular momentum in the basis.
func (b *Basis) MaxL() int {
	m := 0
	for i := range b.Shells {
		if l := b.Shells[i].MaxL(); l > m {
			m = l
		}
	}
	return m
}

// NumShells returns the GAMESS-style shell count (fused L shells count 1).
func (b *Basis) NumShells() int { return len(b.Shells) }

// ShellSizeMax returns the largest per-shell basis function count; the
// shared-Fock algorithm sizes its FI/FJ buffers with it (Algorithm 3
// line 1: mxsize = ubound(Fock) * shellSize).
func (b *Basis) ShellSizeMax() int {
	m := 0
	for i := range b.Shells {
		if n := b.Shells[i].NumFuncs(); n > m {
			m = n
		}
	}
	return m
}

// Build constructs the named basis ("sto-3g", "6-31g", "6-31g(d)") over a
// molecule, assigning basis-function offsets in shell order.
func Build(mol *molecule.Molecule, setName string) (*Basis, error) {
	lib, ok := libraries[normalizeName(setName)]
	if !ok {
		return nil, fmt.Errorf("basis: unknown basis set %q", setName)
	}
	b := &Basis{Mol: mol, Name: setName}
	off := 0
	for ai, atom := range mol.Atoms {
		specs, ok := lib[atom.Symbol]
		if !ok {
			return nil, fmt.Errorf("basis: no %s parameters for element %s", setName, atom.Symbol)
		}
		for _, sp := range specs {
			sh := Shell{
				Atom:    ai,
				Center:  atom.Pos,
				Moments: append([]int(nil), sp.moments...),
				Exps:    append([]float64(nil), sp.exps...),
			}
			for _, cs := range sp.coefs {
				sh.Coefs = append(sh.Coefs, append([]float64(nil), cs...))
			}
			sh.normalize()
			sh.BFOffset = off
			off += sh.NumFuncs()
			b.Shells = append(b.Shells, sh)
		}
	}
	b.NumBF = off
	return b, nil
}

// BFLabels returns human-readable labels ("C3 dxy") for every basis
// function, mostly for debugging and the examples' output.
func (b *Basis) BFLabels() []string {
	names := map[int]string{0: "s", 1: "p", 2: "d", 3: "f"}
	axes := []string{"x", "y", "z"}
	labels := make([]string, 0, b.NumBF)
	for _, sh := range b.Shells {
		for _, l := range sh.Moments {
			for _, c := range CartComponents(l) {
				lbl := fmt.Sprintf("%s%d %s", b.Mol.Atoms[sh.Atom].Symbol, sh.Atom+1, names[l])
				for ax := 0; ax < 3; ax++ {
					for k := 0; k < c[ax]; k++ {
						lbl += axes[ax]
					}
				}
				labels = append(labels, lbl)
			}
		}
	}
	return labels
}

package integrals

import (
	"math"
	"slices"
	"testing"

	"repro/internal/basis"
	"repro/internal/molecule"
)

// The production PairCache against the symmetries of the Coulomb
// operator: moving a molecule rigidly leaves every ERI block unchanged,
// up to the transformation of its Cartesian components.

// movedMolecule returns m with every atom moved by f.
func movedMolecule(m *molecule.Molecule, f func(p [3]float64) [3]float64) *molecule.Molecule {
	out := *m
	out.Atoms = slices.Clone(m.Atoms)
	for i := range out.Atoms {
		out.Atoms[i].Pos = f(out.Atoms[i].Pos)
	}
	return &out
}

// quartetBlocks returns the PairCache block of each quartet of b.
func quartetBlocks(b *basis.Basis, qs [][4]int) [][]float64 {
	pc := NewPairCache(NewEngine(b), 0)
	out := make([][]float64, len(qs))
	for n, q := range qs {
		out[n] = pc.ShellQuartet(q[0], q[1], q[2], q[3], nil)
	}
	return out
}

func frobenius(blk []float64) float64 {
	s := 0.0
	for _, v := range blk {
		s += v * v
	}
	return math.Sqrt(s)
}

// shellClass names a quartet's shells by their moments: "d" for a pure d
// shell, "l" for an sp shell, "s" and "p" for the others.
func shellClass(b *basis.Basis, q [4]int) string {
	c := make([]byte, 4)
	for n, s := range q {
		switch m := b.Shells[s].Moments; {
		case len(m) == 2:
			c[n] = 'l'
		default:
			c[n] = "spdf"[m[0]]
		}
	}
	return string(c)
}

// TestPairCacheTranslationInvariant: translating the water dimer by an
// arbitrary vector leaves every Schwarz-surviving 6-31G(d) block unchanged
// to 1e-12 of its largest element.
func TestPairCacheTranslationInvariant(t *testing.T) {
	mol := benchDimer(t)
	bas := buildBasis(t, mol, "6-31g(d)")
	qs := survivors(bas)
	shift := [3]float64{3.7, -1.9, 0.45}
	moved := buildBasis(t, movedMolecule(mol, func(p [3]float64) [3]float64 {
		return [3]float64{p[0] + shift[0], p[1] + shift[1], p[2] + shift[2]}
	}), "6-31g(d)")
	want, got := quartetBlocks(bas, qs), quartetBlocks(moved, qs)
	for n, q := range qs {
		scale := 0.0
		for _, v := range want[n] {
			scale = max(scale, math.Abs(v))
		}
		for e, v := range got[n] {
			if d := math.Abs(v - want[n][e]); d > 1e-12*scale {
				t.Fatalf("quartet %v element %d: %.17g translated, %.17g in place (|diff| %.3g of block max %.3g)", q, e, v, want[n][e], d, scale)
			}
		}
	}
}

// TestPairCacheAxisRotationKeepsNorms: a 90° rotation about z maps
// (x, y, z) to (-y, x, z), so each Cartesian component of a p or d shell
// goes to another of its shell's components, possibly with its sign
// flipped, and each block's Frobenius norm is unchanged. Every surviving
// block of the water dimer in 6-31G(d) is checked, the (dd|dd) and
// (dd|ll) classes among them. (An arbitrary rotation mixes xx, yy and zz,
// whose unit normalisation differs from xy's, so it keeps no d norm.)
func TestPairCacheAxisRotationKeepsNorms(t *testing.T) {
	mol := benchDimer(t)
	bas := buildBasis(t, mol, "6-31g(d)")
	qs := survivors(bas)
	rotated := buildBasis(t, movedMolecule(mol, func(p [3]float64) [3]float64 {
		return [3]float64{-p[1], p[0], p[2]}
	}), "6-31g(d)")
	classes := map[string]int{}
	want, got := quartetBlocks(bas, qs), quartetBlocks(rotated, qs)
	for n, q := range qs {
		classes[shellClass(bas, q)]++
		if a, b := frobenius(want[n]), frobenius(got[n]); math.Abs(a-b) > 1e-12*a {
			t.Fatalf("quartet %v (%s): norm %.17g rotated, %.17g in place", q, shellClass(bas, q), b, a)
		}
	}
	if classes["dddd"] == 0 || classes["ddll"]+classes["lldd"] == 0 {
		t.Fatalf("the sweep checked no (dd|dd) or no (dd|ll) block: classes %v", classes)
	}
}

// TestPairCacheRotationKeepsSPNorms: on an s/p-only basis (water/STO-3G)
// any rotation transforms each shell's components orthogonally, so an
// arbitrary one leaves every block's Frobenius norm unchanged.
func TestPairCacheRotationKeepsSPNorms(t *testing.T) {
	mol := molecule.Water()
	bas := buildBasis(t, mol, "sto-3g")
	// Rotation by 0.7 rad about the unit vector along (1, 2, 3).
	axis := [3]float64{1 / math.Sqrt(14), 2 / math.Sqrt(14), 3 / math.Sqrt(14)}
	c, s := math.Cos(0.7), math.Sin(0.7)
	rotated := buildBasis(t, movedMolecule(mol, func(p [3]float64) [3]float64 {
		dot := axis[0]*p[0] + axis[1]*p[1] + axis[2]*p[2]
		cross := [3]float64{axis[1]*p[2] - axis[2]*p[1], axis[2]*p[0] - axis[0]*p[2], axis[0]*p[1] - axis[1]*p[0]}
		var r [3]float64
		for i := range r {
			r[i] = p[i]*c + cross[i]*s + axis[i]*dot*(1-c)
		}
		return r
	}), "sto-3g")
	var qs [][4]int
	forCanonicalQuartets(len(bas.Shells), func(i, j, k, l int) { qs = append(qs, [4]int{i, j, k, l}) })
	want, got := quartetBlocks(bas, qs), quartetBlocks(rotated, qs)
	for n, q := range qs {
		if a, b := frobenius(want[n]), frobenius(got[n]); math.Abs(a-b) > 1e-12*a {
			t.Fatalf("quartet %v (%s): norm %.17g rotated, %.17g in place", q, shellClass(bas, q), b, a)
		}
	}
}

package linalg_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/basis"
	"repro/internal/integrals"
	"repro/internal/linalg"
	"repro/internal/molecule"
)

// jacobiEigenvalues is the oracle EigenSym is held to: serial cyclic
// Jacobi, which shares no step with tred2/tqli. Ascending eigenvalues.
func jacobiEigenvalues(a *linalg.Matrix) []float64 {
	n := a.Rows
	w := a.Clone()
	floor := 1e-30 * linalg.Dot(w, w)
	for sweep := 0; sweep < 60; sweep++ {
		off := 0.0
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				off += w.At(p, q) * w.At(p, q)
			}
		}
		if off <= floor {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if apq == 0 {
					continue
				}
				theta := (w.At(q, q) - w.At(p, p)) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for r := 0; r < n; r++ {
					wp, wq := w.At(r, p), w.At(r, q)
					w.Set(r, p, c*wp-s*wq)
					w.Set(r, q, s*wp+c*wq)
				}
				for r := 0; r < n; r++ {
					wp, wq := w.At(p, r), w.At(q, r)
					w.Set(p, r, c*wp-s*wq)
					w.Set(q, r, s*wp+c*wq)
				}
			}
		}
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = w.At(i, i)
	}
	sort.Float64s(vals)
	return vals
}

// checkAgainstJacobi fails unless EigenSym(a) matches the oracle's
// eigenvalues to 1e-10 and satisfies max|AV - V diag(vals)| <= 1e-10.
// identity returns the n x n identity matrix.
func identity(n int) *linalg.Matrix {
	m := linalg.NewSquare(n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

func checkAgainstJacobi(t *testing.T, label string, a *linalg.Matrix) {
	t.Helper()
	vals, vecs := linalg.EigenSym(a)
	for i, want := range jacobiEigenvalues(a) {
		if math.Abs(vals[i]-want) > 1e-10 {
			t.Fatalf("%s: eigenvalue %d = %.14g, Jacobi says %.14g (spectrum %v)", label, i, vals[i], want, vals)
		}
	}
	av := linalg.Mul(a, vecs)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Rows; j++ {
			if r := math.Abs(av.At(i, j) - vecs.At(i, j)*vals[j]); r > 1e-10 {
				t.Fatalf("%s: |AV - VL| = %.3g at (%d,%d)", label, r, i, j)
			}
		}
	}
}

// TestEigenSymDegenerateSPD: seeded SPD matrices Q diag(lambda) Q^T, Q a
// Householder reflection, whose spectra are forced into 2- and 3-fold
// degenerate groups.
func TestEigenSymDegenerateSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for n := 2; n <= 40; n++ {
		for _, fold := range []int{2, 3} {
			lambda := make([]float64, n)
			v := make([]float64, n)
			vv := 0.0
			for i := range lambda {
				if i%fold == 0 {
					lambda[i] = 0.1 + 2*rng.Float64()
				} else {
					lambda[i] = lambda[i-1]
				}
				v[i] = rng.NormFloat64()
				vv += v[i] * v[i]
			}
			q := identity(n) // Q = I - 2 v v^T / (v^T v)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					q.Add(i, j, -2*v[i]*v[j]/vv)
				}
			}
			a := linalg.New(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					sum := 0.0
					for k := 0; k < n; k++ {
						sum += q.At(i, k) * lambda[k] * q.At(j, k)
					}
					a.Set(i, j, sum)
				}
			}
			a.Symmetrize()
			checkAgainstJacobi(t, fmt.Sprintf("n=%d fold=%d", n, fold), a)
		}
	}
}

// scaledOverlap is the STO-3G overlap matrix of mol with every coordinate
// multiplied by factor and routed through the XYZ text a served job
// arrives as (%.9f angstrom), which is how the failing geometries were
// found.
func scaledOverlap(t *testing.T, mol *molecule.Molecule, factor float64) *linalg.Matrix {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "%d\n%s x %.9f\n", len(mol.Atoms), mol.Name, factor)
	for _, a := range mol.Atoms {
		fmt.Fprintf(&b, "%-2s %.9f %.9f %.9f\n", a.Symbol,
			factor*a.Pos[0]/molecule.BohrPerAngstrom,
			factor*a.Pos[1]/molecule.BohrPerAngstrom,
			factor*a.Pos[2]/molecule.BohrPerAngstrom)
	}
	parsed, err := molecule.ParseXYZ(b.String())
	if err != nil {
		t.Fatal(err)
	}
	bas, err := basis.Build(parsed, "sto-3g")
	if err != nil {
		t.Fatal(err)
	}
	return integrals.NewEngine(bas).Overlap()
}

// TestEigenSymScaledOverlaps: tqli used to skip the closing update of a QL
// sweep whose last rotation had r == 0 exactly — symmetric, degenerate
// spectra such as methane's T_d overlap — and return a negative overlap
// eigenvalue for about one scaled methane in 900.
func TestEigenSymScaledOverlaps(t *testing.T) {
	for _, factor := range []float64{0.915069434, 0.985749597} {
		s := scaledOverlap(t, molecule.Methane(), factor)
		checkAgainstJacobi(t, fmt.Sprintf("methane x %.9f", factor), s)
		if vals, _ := linalg.EigenSym(s); vals[0] <= 0 {
			t.Fatalf("methane x %.9f: overlap eigenvalue %v", factor, vals[0])
		}
	}
	rng := rand.New(rand.NewSource(22))
	for _, mk := range []func() *molecule.Molecule{molecule.Water, molecule.Ammonia, molecule.Methane, molecule.H2} {
		mol := mk()
		for i := 0; i < 2000; i++ {
			factor := 0.9 + 0.2*rng.Float64()
			checkAgainstJacobi(t, fmt.Sprintf("%s x %.17g", mol.Name, factor), scaledOverlap(t, mol, factor))
		}
	}
}

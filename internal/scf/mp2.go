package scf

import (
	"fmt"

	"repro/internal/integrals"
	"repro/internal/linalg"
)

// Second-order Møller-Plesset perturbation theory on a converged RHF
// reference. The paper's introduction motivates the Hartree-Fock work by
// its role as the starting point for post-HF methods (MP2 scales O(N^5),
// CCSD(T) O(N^7)); this closed-shell MP2 demonstrates the pipeline:
// SCF orbitals -> AO-to-MO integral transformation -> correlation energy.

// MP2Result holds the correlation correction.
type MP2Result struct {
	CorrelationEnergy float64 // E(2), always <= 0
	TotalEnergy       float64 // E(RHF) + E(2)
	SameSpin          float64 // triplet-coupled contribution
	OppositeSpin      float64 // singlet-coupled contribution
}

// RunMP2 computes the closed-shell MP2 energy from a converged RHF
// result. It builds the full ERI tensor and performs the four-index
// transformation in four O(N^5) quarter steps — feasible for the small
// systems real execution targets (N up to roughly a hundred).
func RunMP2(eng *integrals.Engine, ref *Result) (*MP2Result, error) {
	if !ref.Converged || ref.C == nil {
		return nil, fmt.Errorf("scf: MP2 needs a converged RHF reference with orbitals")
	}
	n := eng.Basis.NumBF
	nocc := eng.Basis.Mol.NumElectrons() / 2
	nvirt := n - nocc
	if nvirt == 0 {
		return nil, fmt.Errorf("scf: no virtual orbitals in this basis (N = %d, occ = %d)", n, nocc)
	}
	c := ref.C
	eps := ref.OrbitalEnergies

	ao := eng.FullERITensor()
	// Quarter transformations (ab|cd) -> (pb|cd) -> (pq|cd) -> (pq|rd)
	// -> (pq|rs), each O(N^5).
	t1 := quarterTransform(ao, c, n, 0)
	t2 := quarterTransform(t1, c, n, 1)
	t3 := quarterTransform(t2, c, n, 2)
	mo := quarterTransform(t3, c, n, 3)

	at := func(p, q, r, s int) float64 { return mo[((p*n+q)*n+r)*n+s] }
	res := &MP2Result{}
	for i := 0; i < nocc; i++ {
		for j := 0; j < nocc; j++ {
			for a := nocc; a < n; a++ {
				for b := nocc; b < n; b++ {
					iajb := at(i, a, j, b)
					ibja := at(i, b, j, a)
					denom := eps[i] + eps[j] - eps[a] - eps[b]
					os := iajb * iajb / denom
					ss := iajb * (iajb - ibja) / denom
					res.OppositeSpin += os
					res.SameSpin += ss
				}
			}
		}
	}
	res.CorrelationEnergy = res.OppositeSpin + res.SameSpin
	res.TotalEnergy = ref.Energy + res.CorrelationEnergy
	return res, nil
}

// quarterTransform contracts MO coefficients into one index of the
// four-index tensor: axis selects which of the four positions is
// transformed (0..3). Layout is row-major over (p, q, r, s).
func quarterTransform(t []float64, c *linalg.Matrix, n, axis int) []float64 {
	out := make([]float64, len(t))
	// Strides of the four indices.
	strides := [4]int{n * n * n, n * n, n, 1}
	st := strides[axis]
	// Iterate over all positions of the other three indices; transform
	// along `axis`: out[..., p, ...] = sum_mu C[mu][p] t[..., mu, ...].
	outer := len(t) / n
	idxBuf := make([]int, 0, outer)
	// Enumerate base offsets where the transformed index is zero.
	for base := 0; base < len(t); base++ {
		if (base/st)%n == 0 {
			idxBuf = append(idxBuf, base)
		}
	}
	for _, base := range idxBuf {
		for p := 0; p < n; p++ {
			sum := 0.0
			for mu := 0; mu < n; mu++ {
				sum += c.At(mu, p) * t[base+mu*st]
			}
			out[base+p*st] = sum
		}
	}
	return out
}

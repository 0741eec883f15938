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
// result. The AO integrals come from the production kernel (a PairCache
// over the engine's basis) and are never stored whole: halfTransform
// turns them into (ia|jσ) one ket shell pair at a time, and the last
// quarter step to (ia|jb) runs one occupied j at a time. Memory is
// O(o²vN) for o occupied and v virtual orbitals of N basis functions.
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
	ov := nocc * nvirt
	h := halfTransform(eng, c, nocc)

	res := &MP2Result{}
	g := make([]float64, nvirt*ov) // (ia|jb) at g[b*ov+i*nvirt+a], one j at a time
	for j := 0; j < nocc; j++ {
		clear(g)
		for s := 0; s < n; s++ {
			row := h[(s*nocc+j)*ov:][:ov]
			for b := 0; b < nvirt; b++ {
				axpy(g[b*ov:][:ov], c.At(s, nocc+b), row)
			}
		}
		for i := 0; i < nocc; i++ {
			for a := 0; a < nvirt; a++ {
				for b := 0; b < nvirt; b++ {
					iajb := g[b*ov+i*nvirt+a]
					ibja := g[a*ov+i*nvirt+b]
					denom := eps[i] + eps[j] - eps[nocc+a] - eps[nocc+b]
					res.OppositeSpin += iajb * iajb / denom
					res.SameSpin += iajb * (iajb - ibja) / denom
				}
			}
		}
	}
	res.CorrelationEnergy = res.OppositeSpin + res.SameSpin
	res.TotalEnergy = ref.Energy + res.CorrelationEnergy
	return res, nil
}

// halfTransform returns (ia|jσ) = sum_μνλ C_μi C_νa C_λj (μν|λσ) for
// occupied i, j, virtual a and every AO σ, laid out h[(σ*nocc+j)*ov +
// i*nvirt+a]. For each canonical ket shell pair (K >= L) it evaluates
// (IJ|KL) over every canonical bra pair (I >= J) through the PairCache —
// each symmetry-unique quartet twice, once from either side — transforms
// the bra to (ia| in place, and folds the ket's λ into h. Nothing larger
// than one ket pair's (ia|λσ) block is held besides h itself.
func halfTransform(eng *integrals.Engine, c *linalg.Matrix, nocc int) []float64 {
	shells := eng.Basis.Shells
	n := eng.Basis.NumBF
	nvirt := n - nocc
	ov := nocc * nvirt
	co := make([]float64, n*nocc)  // C_μi at co[μ*nocc+i]
	cv := make([]float64, n*nvirt) // C_νa at cv[ν*nvirt+a]
	for mu := 0; mu < n; mu++ {
		for i := 0; i < nocc; i++ {
			co[mu*nocc+i] = c.At(mu, i)
		}
		for a := 0; a < nvirt; a++ {
			cv[mu*nvirt+a] = c.At(mu, nocc+a)
		}
	}
	pc := integrals.NewPairCache(eng, 0)
	maxKL := eng.Basis.ShellSizeMax() * eng.Basis.ShellSizeMax()
	t := make([]float64, maxKL*n*nocc) // (iν|λσ) at t[(kl*n+ν)*nocc+i]
	x := make([]float64, maxKL*ov)     // (ia|λσ) at x[kl*ov+i*nvirt+a]
	h := make([]float64, n*nocc*ov)
	var blk []float64
	for k := range shells {
		sk := &shells[k]
		for l := 0; l <= k; l++ {
			sl := &shells[l]
			nl := sl.NumFuncs()
			nkl := sk.NumFuncs() * nl
			t, x := t[:nkl*n*nocc], x[:nkl*ov]
			clear(t)
			// First quarter: (iν|λσ) = sum_μ C_μi (μν|λσ), each bra block
			// standing for (IJ| and, when I != J, (JI|.
			for i := range shells {
				si := &shells[i]
				for j := 0; j <= i; j++ {
					sj := &shells[j]
					nj := sj.NumFuncs()
					blk = pc.ShellQuartet(i, j, k, l, blk)
					for fi := 0; fi < si.NumFuncs(); fi++ {
						mu := si.BFOffset + fi
						for fj := 0; fj < nj; fj++ {
							nu := sj.BFOffset + fj
							for kl, v := range blk[(fi*nj+fj)*nkl:][:nkl] {
								if v == 0 {
									continue
								}
								tk := t[kl*n*nocc:]
								axpy(tk[nu*nocc:][:nocc], v, co[mu*nocc:][:nocc])
								if i != j {
									axpy(tk[mu*nocc:][:nocc], v, co[nu*nocc:][:nocc])
								}
							}
						}
					}
				}
			}
			// Second quarter: (ia|λσ) = sum_ν (iν|λσ) C_νa.
			clear(x)
			for kl := 0; kl < nkl; kl++ {
				for nu := 0; nu < n; nu++ {
					cva := cv[nu*nvirt:][:nvirt]
					for i, v := range t[(kl*n+nu)*nocc:][:nocc] {
						axpy(x[kl*ov+i*nvirt:][:nvirt], v, cva)
					}
				}
			}
			// Third quarter: (ia|jσ) += C_λj (ia|λσ), and (ia|jλ) += C_σj
			// (ia|λσ) for the (LK) half a K != L pair stands for.
			for kl := 0; kl < nkl; kl++ {
				lam := sk.BFOffset + kl/nl
				sig := sl.BFOffset + kl%nl
				xr := x[kl*ov:][:ov]
				for j := 0; j < nocc; j++ {
					axpy(h[(sig*nocc+j)*ov:][:ov], co[lam*nocc+j], xr)
					if k != l {
						axpy(h[(lam*nocc+j)*ov:][:ov], co[sig*nocc+j], xr)
					}
				}
			}
		}
	}
	return h
}

// axpy adds a*x to y.
func axpy(y []float64, a float64, x []float64) {
	x = x[:len(y)]
	for i := range y {
		y[i] += a * x[i]
	}
}

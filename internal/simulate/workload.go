package simulate

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/basis"
	"repro/internal/integrals"
	"repro/internal/linalg"
	"repro/internal/molecule"
)

// Workload captures the screening-relevant structure of a chemical system:
// shell positions, classes, and Gaussian decay exponents. It is built from
// the real molecule/basis machinery but carries no integral values.
type Workload struct {
	Name         string
	NShells      int
	NBF          int
	ShellSizeMax int
	Class        []ShellClass
	MinExp       []float64 // most diffuse primitive exponent per shell
	Pos          [][3]float64
}

// NewWorkload derives a workload from a molecule and basis set name.
func NewWorkload(mol *molecule.Molecule, set string) (*Workload, error) {
	b, err := basis.Build(mol, set)
	if err != nil {
		return nil, err
	}
	w := &Workload{
		Name:         mol.Name,
		NShells:      b.NumShells(),
		NBF:          b.NumBF,
		ShellSizeMax: b.ShellSizeMax(),
		Class:        make([]ShellClass, b.NumShells()),
		MinExp:       make([]float64, b.NumShells()),
		Pos:          make([][3]float64, b.NumShells()),
	}
	for i := range b.Shells {
		sh := &b.Shells[i]
		w.Class[i] = ClassOf(sh)
		minExp := math.Inf(1)
		for _, e := range sh.Exps {
			if e < minExp {
				minExp = e
			}
		}
		w.MinExp[i] = minExp
		w.Pos[i] = sh.Center
	}
	return w, nil
}

// PaperWorkload builds the named Table 4 graphene bilayer system with the
// paper's 6-31G(d) basis.
func PaperWorkload(name string) (*Workload, error) {
	mol, err := molecule.PaperSystem(name)
	if err != nil {
		return nil, err
	}
	return NewWorkload(mol, "6-31g(d)")
}

// NumPairs returns the total canonical shell-pair count (the ij and kl
// iteration spaces of Algorithms 1 and 3).
func (w *Workload) NumPairs() int { return w.NShells * (w.NShells + 1) / 2 }

// surrogateQ returns the analytic Cauchy-Schwarz surrogate
// Q_ij = exp(-mu r^2), mu = e_i e_j / (e_i + e_j) over the most diffuse
// exponents. It reproduces the exponential pair-distance decay that makes
// the graphene ERI tensor sparse; the exact Schwarz matrix (available for
// small systems through ExactQ) validates it in the tests.
func (w *Workload) surrogateQ(i, j int) float64 {
	ei, ej := w.MinExp[i], w.MinExp[j]
	mu := ei * ej / (ei + ej)
	dx := w.Pos[i][0] - w.Pos[j][0]
	dy := w.Pos[i][1] - w.Pos[j][1]
	dz := w.Pos[i][2] - w.Pos[j][2]
	return math.Exp(-mu * (dx*dx + dy*dy + dz*dz))
}

// qBuckets is the decade resolution of the significance histogram used by
// the kl-count queries (Q in (10^-(b+1), 10^-b]).
const qBuckets = 16

func bucketOf(q float64) int {
	if q >= 1 {
		return 0
	}
	b := int(-math.Log10(q))
	if b >= qBuckets {
		b = qBuckets - 1
	}
	return b
}

// SigPair is one Schwarz-surviving shell pair.
type SigPair struct {
	Idx    int // canonical pair index (linalg.PackedIndex)
	I, J   int
	Q      float64
	Class  PairClass
	Bucket uint8
}

// Profile is a workload analyzed at a screening threshold with the cost
// model: the sorted significant pairs plus, per pair, the single-thread
// quartet work of its kl loop (the cost of an Algorithm 1/3 task) and the
// aggregated per-i-shell work (the cost of an Algorithm 2 task).
type Profile struct {
	W   *Workload
	Tau float64

	Sig []SigPair
	// KLCost[s] is the quartet seconds of sig pair s's kl loop; KLQuartets
	// the surviving quartet count.
	KLCost     []float64
	KLQuartets []int64
	// TaskCostI[i] / TaskQuartetsI[i] aggregate Algorithm 2's per-i work.
	TaskCostI     []float64
	TaskQuartetsI []int64

	TotalQuartetSec float64
	TotalQuartets   int64
}

// NewProfile analyzes the workload with the surrogate screening model.
func NewProfile(w *Workload, tau float64) *Profile {
	p := &Profile{W: w, Tau: tau}
	p.Sig = w.significantPairs(tau)
	p.analyze()
	return p
}

// NewExactProfile analyzes using the exact Schwarz matrix from the
// integral engine — feasible for small systems; validates the surrogate.
func NewExactProfile(eng *integrals.Engine, tau float64) (*Profile, error) {
	w, err := NewWorkload(eng.Basis.Mol, eng.Basis.Name)
	if err != nil {
		return nil, err
	}
	sch := integrals.ComputeSchwarz(eng)
	maxQ := sch.MaxQ()
	var sig []SigPair
	for i := 0; i < w.NShells; i++ {
		for j := 0; j <= i; j++ {
			q := sch.PairQ(i, j)
			if q*maxQ < tau {
				continue
			}
			sig = append(sig, SigPair{
				Idx: linalg.PackedIndex(i, j), I: i, J: j, Q: q,
				Class:  PairClassOf(w.Class[i], w.Class[j]),
				Bucket: uint8(bucketOf(q / maxQ)),
			})
		}
	}
	p := &Profile{W: w, Tau: tau, Sig: sig}
	p.analyze()
	return p, nil
}

// significantPairs finds all pairs with Q_ij * Qmax >= tau (Qmax = 1 for
// the normalized surrogate) using a uniform spatial grid, avoiding the
// O(NShells^2) scan that would be prohibitive at 8,064 shells.
func (w *Workload) significantPairs(tau float64) []SigPair {
	logTau := -math.Log(tau)
	// Global cutoff from the most diffuse exponent present.
	minE := math.Inf(1)
	for _, e := range w.MinExp {
		if e < minE {
			minE = e
		}
	}
	rmax := math.Sqrt(logTau / (minE / 2))
	cell := rmax
	key := func(p [3]float64) [3]int {
		return [3]int{int(math.Floor(p[0] / cell)), int(math.Floor(p[1] / cell)), int(math.Floor(p[2] / cell))}
	}
	grid := map[[3]int][]int{}
	for i := 0; i < w.NShells; i++ {
		k := key(w.Pos[i])
		grid[k] = append(grid[k], i)
	}
	var sig []SigPair
	for i := 0; i < w.NShells; i++ {
		ki := key(w.Pos[i])
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for dz := -1; dz <= 1; dz++ {
					for _, j := range grid[[3]int{ki[0] + dx, ki[1] + dy, ki[2] + dz}] {
						if j > i {
							continue
						}
						q := w.surrogateQ(i, j)
						if q < tau {
							continue
						}
						sig = append(sig, SigPair{
							Idx: linalg.PackedIndex(i, j), I: i, J: j, Q: q,
							Class:  PairClassOf(w.Class[i], w.Class[j]),
							Bucket: uint8(bucketOf(q)),
						})
					}
				}
			}
		}
	}
	sort.Slice(sig, func(a, b int) bool { return sig[a].Idx < sig[b].Idx })
	return sig
}

// analyze sweeps the significant pairs in ij order, maintaining running
// per-(class, Q-decade) counts so that each pair's kl-loop quartet count
// ("how many significant kl <= ij survive the product test
// Q_ij * Q_kl >= tau") is an O(classes x buckets) query instead of a scan.
func (p *Profile) analyze() {
	n := len(p.Sig)
	p.KLCost = make([]float64, n)
	p.KLQuartets = make([]int64, n)
	p.TaskCostI = make([]float64, p.W.NShells)
	p.TaskQuartetsI = make([]int64, p.W.NShells)

	var running [NumPairClasses][qBuckets]int64
	for s := 0; s < n; s++ {
		sp := &p.Sig[s]
		// Include the pair itself before querying: kl ranges over <= ij.
		running[sp.Class][sp.Bucket]++
		// Product threshold: Q_kl >= tau / Q_ij. Buckets whose upper edge
		// 10^-b falls below the threshold contribute nothing.
		thresh := p.Tau / sp.Q
		maxBucket := qBuckets - 1
		if thresh > 0 {
			if lb := -math.Log10(thresh); lb < float64(qBuckets) {
				maxBucket = int(lb)
				if maxBucket < 0 {
					maxBucket = -1
				}
			}
		}
		var cost float64
		var count int64
		for c := 0; c < NumPairClasses; c++ {
			var cc int64
			for b := 0; b <= maxBucket && b < qBuckets; b++ {
				cc += running[c][b]
			}
			count += cc
			cost += float64(cc) * quartetTime(sp.Class, PairClass(c))
		}
		p.KLCost[s] = cost
		p.KLQuartets[s] = count
		p.TaskCostI[sp.I] += cost
		p.TaskQuartetsI[sp.I] += count
		p.TotalQuartetSec += cost
		p.TotalQuartets += count
	}
}

// ChecksForPair returns the number of Schwarz checks an ij task performs
// (the kl loop spans every canonical pair <= ij, surviving or not).
func ChecksForPair(ij int) int64 { return int64(ij) + 1 }

// ChecksForI returns the Schwarz checks of an Algorithm 2 i-task: the sum
// of ChecksForPair over j = 0..i.
func ChecksForI(i int) int64 {
	// sum_{j=0..i} (PackedIndex(i,j) + 1) = (i+1)(i(i+1)/2 + 1) + i(i+1)/2
	ii := int64(i)
	base := ii * (ii + 1) / 2
	return (ii+1)*(base+1) + base
}

// String summarizes the profile.
func (p *Profile) String() string {
	return fmt.Sprintf("%s: %d shells, %d BF, %d/%d significant pairs, %.3g quartets, %.1f single-thread quartet-seconds",
		p.W.Name, p.W.NShells, p.W.NBF, len(p.Sig), p.W.NumPairs(), float64(p.TotalQuartets), p.TotalQuartetSec)
}

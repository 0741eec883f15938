package integrals

import "math"

// Schwarz holds the Cauchy-Schwarz screening data: for each shell pair
// (i, j), Q[ij] = sqrt(max_ab (ab|ab)) over the basis functions a in shell
// i and b in shell j. The screening test used throughout the paper is
//
//	|(ij|kl)| <= Q_ij * Q_kl < tau  =>  skip the quartet.
type Schwarz struct {
	NShells int
	Q       []float64 // packed triangular over shell pairs
}

// ComputeSchwarz evaluates the (ij|ij) diagonal quartets for every shell
// pair, each from that pair's own Hermite density built with no
// primitive pruning, through the production kernel. This is the exact
// screening matrix; the large-system simulator has a calibrated analytic
// surrogate in internal/simulate.
func ComputeSchwarz(e *Engine) *Schwarz {
	n := len(e.Basis.Shells)
	s := &Schwarz{NShells: n, Q: make([]float64, n*(n+1)/2)}
	pb := newPairBuilder(e.Basis)
	scratch := pb.index.newScratch(pb.funcs)
	buf := make([]float64, pb.funcs*pb.funcs*pb.funcs*pb.funcs)
	var pd pairData // one pair at a time, its storage reused
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			pb.build(i, j, 0, &pd)
			blk := buf[:pd.nab*pd.nab]
			pb.index.quartet(&pd, &pd, scratch, blk)
			maxv := 0.0
			for ab := 0; ab < pd.nab; ab++ {
				// diagonal element (ab|ab)
				if v := math.Abs(blk[ab*pd.nab+ab]); v > maxv {
					maxv = v
				}
			}
			s.Q[i*(i+1)/2+j] = math.Sqrt(maxv)
		}
	}
	return s
}

// PairQ returns Q for shell pair (i, j) in either index order.
func (s *Schwarz) PairQ(i, j int) float64 {
	if i < j {
		i, j = j, i
	}
	return s.Q[i*(i+1)/2+j]
}

// Bound returns the Cauchy-Schwarz upper bound for quartet (i, j, k, l).
func (s *Schwarz) Bound(i, j, k, l int) float64 {
	return s.PairQ(i, j) * s.PairQ(k, l)
}

// Screened reports whether quartet (i, j, k, l) can be skipped at
// threshold tau.
func (s *Schwarz) Screened(i, j, k, l int, tau float64) bool {
	return s.Bound(i, j, k, l) < tau
}

// MaxQ returns the largest pair bound; useful for prescreening loops.
func (s *Schwarz) MaxQ() float64 {
	m := 0.0
	for _, v := range s.Q {
		if v > m {
			m = v
		}
	}
	return m
}

// SurvivingPairs returns the shell pairs (i >= j) whose Q exceeds
// tau / maxQ — the pairs that can possibly contribute any quartet at
// screening threshold tau. The shared-Fock algorithm's ij prescreening
// (Algorithm 3 line 13) walks exactly this set.
func (s *Schwarz) SurvivingPairs(tau float64) [][2]int {
	maxQ := s.MaxQ()
	var out [][2]int
	for i := 0; i < s.NShells; i++ {
		for j := 0; j <= i; j++ {
			if s.PairQ(i, j)*maxQ >= tau {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

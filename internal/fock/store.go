package fock

import (
	"fmt"

	"repro/internal/basis"
	"repro/internal/integrals"
	"repro/internal/linalg"
)

// Conventional (in-core) SCF support: GAMESS can either recompute every
// ERI each iteration ("direct SCF", what Algorithms 1-3 do and what makes
// the paper's problem interesting at scale) or evaluate the screened
// symmetry-unique integrals once and replay them every iteration. For the
// small systems this repository executes for real, the in-core mode makes
// multi-iteration SCF much faster; it also documents, by contrast, why
// direct SCF is the only option at 30,240 basis functions (the stored
// tensor would need petabytes).

// ERIStore holds the screened symmetry-unique ERI blocks of a basis, laid
// out in the order the serial sweep visits them.
type ERIStore struct {
	eng    *integrals.Engine
	sch    *integrals.Schwarz
	tau    float64
	values []float64
	// BuildStats records the one-time evaluation cost.
	BuildStats Stats
}

// MaxStoreBytes caps the in-core tensor; BuildStore refuses beyond it.
const MaxStoreBytes = 1 << 31 // 2 GiB

// The store is the serial sweep run three ways, so what is sized, stored
// and replayed is by construction exactly what the walker screens in:
// the sizer source prices a block without evaluating it, the recording
// sweep keeps every block the engine evaluates, and the replay source
// hands the kept blocks back in order.

type sizer struct {
	shells []basis.Shell
	bytes  int64
}

func (s *sizer) ShellQuartet(i, j, k, l int, out []float64) []float64 {
	s.bytes += int64(integrals.QuartetSize(&s.shells[i], &s.shells[j], &s.shells[k], &s.shells[l])) * 8
	return out
}

type replay struct {
	st  *ERIStore
	pos int
}

func (r *replay) ShellQuartet(i, j, k, l int, _ []float64) []float64 {
	shells := r.st.eng.Basis.Shells
	size := integrals.QuartetSize(&shells[i], &shells[j], &shells[k], &shells[l])
	blk := r.st.values[r.pos : r.pos+size]
	r.pos += size
	return blk
}

// EstimateStoreBytes predicts the value storage for the screened quartet
// list without computing any integrals.
func EstimateStoreBytes(eng *integrals.Engine, sch *integrals.Schwarz, tau float64) int64 {
	size := &sizer{shells: eng.Basis.Shells}
	serialWalker(eng, size, sch, tau).sweep()
	return size.bytes
}

// BuildStore evaluates and stores every screened symmetry-unique shell
// quartet block.
func BuildStore(eng *integrals.Engine, sch *integrals.Schwarz, tau float64) (*ERIStore, error) {
	if tau == 0 {
		tau = DefaultTau
	}
	if est := EstimateStoreBytes(eng, sch, tau); est > MaxStoreBytes {
		return nil, fmt.Errorf("fock: in-core store would need %.1f GiB (cap %.1f); use direct SCF",
			float64(est)/(1<<30), float64(MaxStoreBytes)/(1<<30))
	}
	st := &ERIStore{eng: eng, sch: sch, tau: tau}
	w := serialWalker(eng, eng, sch, tau)
	w.keep = &st.values
	w.sweep()
	st.BuildStats = w.st
	return st, nil
}

// NumQuartets returns how many blocks are stored.
func (st *ERIStore) NumQuartets() int { return int(st.BuildStats.QuartetsComputed) }

// Bytes returns the value storage size.
func (st *ERIStore) Bytes() int64 { return int64(len(st.values)) * 8 }

// BuildFock replays the stored integrals against a density, producing the
// two-electron Fock matrix without recomputing a single ERI.
func (st *ERIStore) BuildFock(d *linalg.Matrix) (*linalg.Matrix, Stats) {
	g, stats := serial(serialWalker(st.eng, &replay{st: st}, st.sch, st.tau), RHF(d.At))
	return g[0], stats
}

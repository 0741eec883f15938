package scf

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/basis"
	"repro/internal/integrals"
	"repro/internal/molecule"
	"repro/internal/mpi"
)

// tight converges past the 1e-10 Ha the conformance cells assert: a run
// that stops at the default ConvEnergy 1e-9 lands wherever thread and
// rank summation order left its last iterate, which is the tier-1 flake
// ROADMAP 4a records.
var tight = Options{MaxIter: 300, ConvDens: 1e-10, ConvEnergy: 1e-12}

// system is one chemical system of the conformance table.
type system struct {
	name         string
	eng          *integrals.Engine
	sch          *integrals.Schwarz
	multiplicity int
	ref          float64 // serial dense energy on the direct engine, tightly converged
	// src is what the cells evaluate ERIs through: the production pair
	// cache, except for the O2 triplet, whose per-spin DIIS trajectory is
	// sensitive to the last bit of the Fock matrix and stays on the engine.
	src integrals.QuartetSource
}

func newSystem(t *testing.T, name string, mol *molecule.Molecule, multiplicity int) system {
	t.Helper()
	b, err := basis.Build(mol, "sto-3g")
	if err != nil {
		t.Fatal(err)
	}
	s := system{name: name, eng: integrals.NewEngine(b), multiplicity: multiplicity}
	s.sch = integrals.ComputeSchwarz(s.eng)
	res, err := Run(context.Background(), s.eng, s.sch, nil, Plan{Multiplicity: multiplicity, SCF: tight})
	if err != nil || !res.Converged {
		t.Fatalf("%s: serial reference failed: %v", name, err)
	}
	s.ref = res.Energy
	if multiplicity != 3 {
		s.src = integrals.NewPairCache(s.eng, 0)
	}
	return s
}

func o2Molecule() *molecule.Molecule {
	m := &molecule.Molecule{Name: "O2"}
	m.AddAtomAngstrom("O", 0, 0, 0)
	m.AddAtomAngstrom("O", 0, 0, 1.2075)
	return m
}

// TestSCFConformance is the SCF-level conformance table, stacked on the
// Fock-level TestConformance of internal/fock: every cell of
//
//	recovery policy  none | checkpoint-shrink + one kill | elastic + one join | parity-salvage + one kill
//	storage          dense (eigensolve) | tiles (SP2) | ABFT tiles (SP2)
//	system           water RHF | water UHF singlet (≡ RHF) | O2 UHF triplet
//	ranks            1 | 2 | 3 | 5
//
// either matches the serial dense energy to 1e-10 Ha or is out of scope
// and says so with ErrUnsupported. The dense cells rotate the Fock preset
// with the rank count, so all four replicated presets and all four world
// sizes are covered without squaring the table. A kill needs a survivor:
// one-rank cells of the killing policies run clean.
//
// The serial references are pinned to absolute values too, so a defect
// common to every path (a wrong K/2 factor, a stabiliser weight) fails
// here and not only in the cells that compare two paths.
func TestSCFConformance(t *testing.T) {
	water := newSystem(t, "water-rhf", molecule.Water(), 0)
	systems := []system{
		water,
		newSystem(t, "water-uhf-singlet", molecule.Water(), 1),
		newSystem(t, "o2-uhf-triplet", o2Molecule(), 3),
	}
	if d := math.Abs(water.ref - (-74.9630517731)); d > 1e-9 {
		t.Fatalf("water RHF reference %.12f is %.1e off the pinned -74.9630517731", water.ref, d)
	}
	if d := math.Abs(systems[1].ref - water.ref); d > 1e-10 {
		t.Fatalf("water UHF singlet %.12f differs from RHF %.12f by %.1e", systems[1].ref, water.ref, d)
	}
	if d := math.Abs(systems[2].ref - o2TripletEnergy); d > 1e-8 {
		t.Fatalf("O2 triplet reference %.12f is %.1e off the pinned %.12f", systems[2].ref, d, o2TripletEnergy)
	}

	denseByRanks := map[int]Algorithm{1: AlgMPIOnly, 2: AlgPrivateFock, 3: AlgSharedFock, 5: AlgResilientFock}
	for _, policy := range []Policy{None, CheckpointShrink, ElasticEpoch, ParitySalvage} {
		for _, storage := range []string{"dense", "tiles", "abft"} {
			for _, sys := range systems {
				for _, ranks := range []int{1, 2, 3, 5} {
					alg := map[string]Algorithm{"dense": denseByRanks[ranks], "tiles": AlgPurified, "abft": AlgPurifiedABFT}[storage]
					name := fmt.Sprintf("%s/%s/%s/%d", policy, storage, sys.name, ranks)
					t.Run(name, func(t *testing.T) { conformanceCell(t, sys, policy, alg, ranks) })
				}
			}
		}
	}
}

func conformanceCell(t *testing.T, sys system, policy Policy, alg Algorithm, ranks int) {
	p := Plan{
		Multiplicity: sys.multiplicity, Algorithm: alg, Recovery: policy,
		Ranks: ranks, Threads: 2, BlockSize: 3, Deadline: 60 * time.Second, SCF: tight,
	}
	inScope := (alg.tiled() && sys.multiplicity == 0 && (policy == None || (policy == ParitySalvage && alg == AlgPurifiedABFT))) ||
		(!alg.tiled() && policy != ParitySalvage)

	var joined atomic.Bool
	kill := ranks > 1 && inScope
	switch policy {
	case CheckpointShrink:
		if kill {
			// Algorithms 1-3 barrier twice per build (DLBReset), so the fifth
			// barrier is past the first checkpoint. The resilient build has no
			// barrier to die at: it loses the rank at a lease draw instead,
			// and may absorb that in-build.
			p.Fault = &mpi.FaultPlan{Kills: []mpi.Kill{{Rank: 1, Site: mpi.SiteBarrier, After: 5}}}
			if alg == AlgResilientFock {
				p.Fault.Kills[0].Site, p.Fault.Kills[0].After = mpi.SiteDLB, 2
			}
		}
	case ParitySalvage:
		if kill {
			p.Fault = &mpi.FaultPlan{Kills: []mpi.Kill{{Rank: 1, Site: mpi.SitePurify, After: 8}}}
		}
	case ElasticEpoch:
		m := mpi.NewMembership(ranks, nil)
		p.Membership, p.MaxRanks = m, ranks+1
		p.SCF.OnIteration = func(int, *Result) {
			if !joined.Swap(true) {
				m.Announce(1, "joiner")
			}
		}
	}

	res, err := Run(context.Background(), sys.eng, sys.sch, sys.src, p)
	if !inScope {
		if !errors.Is(err, ErrUnsupported) {
			t.Fatalf("out-of-scope cell returned %v, want ErrUnsupported", err)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d iterations", res.Iterations)
	}
	if d := math.Abs(res.Energy - sys.ref); d > 1e-10 {
		t.Errorf("E = %.12f, serial dense %.12f, |dE| = %.2e > 1e-10", res.Energy, sys.ref, d)
	}
	rep := res.Recovery
	switch {
	case policy == ElasticEpoch:
		if rep.GrowRestarts != 1 || rep.JoinsCommitted != 1 || rep.FinalRanks != ranks+1 {
			t.Errorf("the join did not commit: %+v", rep)
		}
	case kill && policy != None && alg != AlgResilientFock:
		if rep.Restarts != 1 || rep.Attempts != 2 || rep.RanksPerAttempt[1] != ranks-1 {
			t.Errorf("the kill was not survived by one shrink: %+v", rep)
		}
	case kill && policy != None:
		if rep.Restarts > 1 || rep.Attempts != 1+rep.Restarts {
			t.Errorf("the kill was survived neither in-build nor by one shrink: %+v", rep)
		}
	case rep.Attempts != 1 || rep.Restarts != 0:
		t.Errorf("clean cell restarted: %+v", rep)
	}
}

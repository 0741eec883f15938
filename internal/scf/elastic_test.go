package scf

import (
	"bytes"
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/integrals"
	"repro/internal/molecule"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// TestCheckpointGrowCompat is the elastic compatibility property: a v1
// checkpoint written by an N-rank world must restore bit-identically
// (every density word equal under math.Float64bits) and warm-start
// worlds of 2N and N-1 ranks to the same converged energy within 1e-10
// hartree. The checkpoint format carries only basis-sized state, never
// rank-count-dependent layout — this is what lets a rebalanced epoch of
// any size resume the physics exactly where the old world stopped.
func TestCheckpointGrowCompat(t *testing.T) {
	const ranks = 2
	eng, sch, _ := resilientSetup(t)
	cold, err := run(eng, sch, resilient(ranks))
	if err != nil || !cold.Converged {
		t.Fatalf("cold %d-rank SCF failed: %v", ranks, err)
	}

	data, err := EncodeCheckpoint("water", "sto-3g", cold)
	if err != nil {
		t.Fatal(err)
	}

	// Bit-identity: decoding twice (as two differently-sized joiners
	// would) yields word-for-word the density the writer held.
	for _, who := range []string{"2N-rank joiner", "N-1-rank survivor"} {
		cp, err := LoadCheckpoint(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", who, err)
		}
		d := cp.DensityMatrix()
		if d.Rows != cold.D.Rows || len(d.Data) != len(cold.D.Data) {
			t.Fatalf("%s: density %dx%d, want %dx%d", who, d.Rows, d.Cols, cold.D.Rows, cold.D.Cols)
		}
		for i := range d.Data {
			if math.Float64bits(d.Data[i]) != math.Float64bits(cold.D.Data[i]) {
				t.Fatalf("%s: density word %d differs: %x vs %x", who, i,
					math.Float64bits(d.Data[i]), math.Float64bits(cold.D.Data[i]))
			}
		}
	}

	// Warm-start invariance: the restored density converges a grown
	// (2N) and a shrunk (N-1) world to the same energy.
	for _, tc := range []struct {
		name  string
		ranks int
	}{
		{"grow-to-2N", 2 * ranks},
		{"shrink-to-N-1", ranks - 1},
	} {
		cp, err := LoadCheckpoint(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		p := resilient(tc.ranks)
		p.SCF.InitialDensity = cp.DensityMatrix()
		warm, err := run(eng, sch, p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !warm.Converged {
			t.Fatalf("%s: warm start did not converge", tc.name)
		}
		if dE := math.Abs(warm.Energy - cold.Energy); dE > 1e-10 {
			t.Fatalf("%s: |dE| = %.2e > 1e-10", tc.name, dE)
		}
		if warm.Iterations >= cold.Iterations {
			t.Fatalf("%s: warm start took %d iterations vs cold %d",
				tc.name, warm.Iterations, cold.Iterations)
		}
	}
}

// TestElasticGrowMidSCF: the elastic driver on a small system — one
// joiner announces mid-run, the epoch stops at an iteration boundary,
// and the grown world finishes from the checkpoint with the energy
// unchanged.
func TestElasticGrowMidSCF(t *testing.T) {
	ref, eng := serialSCF(t, molecule.Water(), "sto-3g", Options{})
	if !ref.Converged {
		t.Fatal("reference SCF did not converge")
	}
	sch := integrals.ComputeSchwarz(eng)

	tel := telemetry.NewSession()
	m := mpi.NewMembership(2, tel)
	var announced atomic.Bool
	res, err := run(eng, sch, Plan{
		Algorithm: AlgResilientFock, Recovery: ElasticEpoch,
		Ranks: 2, MaxRanks: 3, Membership: m, Deadline: 20 * time.Second,
		SCF: Options{Telemetry: tel, OnIteration: func(iter int, _ *Result) {
			if m.Epoch() == 0 && iter >= 1 && !announced.Swap(true) {
				m.Announce(1, "test-joiner")
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Recovery
	if !res.Converged {
		t.Fatal("elastic run did not converge")
	}
	if dE := math.Abs(res.Energy - ref.Energy); dE > 1e-10 {
		t.Fatalf("|dE| = %.2e > 1e-10 across the grow", dE)
	}
	if tr.GrowRestarts != 1 || tr.JoinsCommitted != 1 {
		t.Fatalf("grow restarts = %d, joins = %d, want 1/1", tr.GrowRestarts, tr.JoinsCommitted)
	}
	if tr.FinalRanks != 3 || m.Size() != 3 || m.Epoch() != 1 {
		t.Fatalf("final ranks = %d, pool = %d, epoch = %d, want 3/3/1",
			tr.FinalRanks, m.Size(), m.Epoch())
	}
	if len(tr.Outcomes) != 2 || tr.Outcomes[0] != "join-rebalance" || tr.Outcomes[1] != "converged" {
		t.Fatalf("attempt outcomes = %v, want [join-rebalance converged]", tr.Outcomes)
	}
	if tr.CheckpointRestarts != 1 {
		t.Fatalf("the grown epoch did not warm-start from the checkpoint: %+v", tr)
	}
}

// TestElasticRebalanceBudget: with a zero rebalance budget the driver
// must ignore pending joins rather than stopping the epoch — a wedged
// pool cannot thrash a run to death.
func TestElasticRebalanceBudget(t *testing.T) {
	ref, eng := serialSCF(t, molecule.Water(), "sto-3g", Options{})
	sch := integrals.ComputeSchwarz(eng)
	m := mpi.NewMembership(2, nil)
	var announced atomic.Bool
	res, err := supervise(context.Background(), eng, sch, integrals.NewPairCache(eng, 0), Plan{
		Algorithm: AlgResilientFock, Recovery: ElasticEpoch,
		Ranks: 2, MaxRanks: 4, Membership: m, Deadline: 20 * time.Second,
		SCF: Options{OnIteration: func(int, *Result) {
			if !announced.Swap(true) {
				m.Announce(1, "never-admitted")
			}
		}},
	}, 0) // no transitions allowed
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Recovery
	if !res.Converged || math.Abs(res.Energy-ref.Energy) > 1e-10 {
		t.Fatalf("budget-0 run: conv=%v E=%v vs %v", res.Converged, res.Energy, ref.Energy)
	}
	if tr.GrowRestarts != 0 || tr.Attempts != 1 {
		t.Fatalf("budget-0 run rebalanced: restarts=%d attempts=%d", tr.GrowRestarts, tr.Attempts)
	}
	if m.Size() != 2 {
		t.Fatalf("pool grew to %d under a zero budget", m.Size())
	}
}

package scf

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/fock"
	"repro/internal/integrals"
	"repro/internal/integrity"
	"repro/internal/linalg"
	"repro/internal/molecule"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// TestCheckpointV1AnySingleBitFlipRejected is the checkpoint half of the
// single-bit-flip property: flipping ANY bit of ANY byte of a framed
// checkpoint file — header, JSON body, or CRC trailer — must make
// LoadCheckpoint reject it. Exhaustive over the whole file.
func TestCheckpointV1AnySingleBitFlipRejected(t *testing.T) {
	ref, _ := serialSCF(t, molecule.Water(), "sto-3g", Options{})
	full, err := EncodeCheckpoint("water", "sto-3g", ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(bytes.NewReader(full)); err != nil {
		t.Fatalf("clean checkpoint rejected: %v", err)
	}
	for i := range full {
		for b := 0; b < 8; b++ {
			flipped := append([]byte(nil), full...)
			flipped[i] ^= 1 << uint(b)
			if _, err := LoadCheckpoint(bytes.NewReader(flipped)); err == nil {
				t.Fatalf("bit %d of byte %d (%q): flip accepted", b, i, full[i])
			}
		}
	}
}

// TestCheckpointFutureVersionRefused: a future format version must be
// refused, not misparsed.
func TestCheckpointFutureVersionRefused(t *testing.T) {
	future := []byte("HFCKPT v9 len=2\n{}\ncrc32=00000000\n")
	if _, err := LoadCheckpoint(bytes.NewReader(future)); err == nil {
		t.Fatal("future checkpoint version accepted")
	}
}

// TestFockQuarantineRecompute: a Fock build that returns a poisoned
// matrix is detected by the per-iteration validator, quarantined, and
// rebuilt; the run converges to the clean energy and records the event
// in History and on the sdc.* counters.
func TestFockQuarantineRecompute(t *testing.T) {
	ref, eng := serialSCF(t, molecule.Water(), "sto-3g", Options{})
	sch := integrals.ComputeSchwarz(eng)
	base := SerialBuilder(eng, sch, 0)
	calls := 0
	poisoning := func(d *linalg.Matrix) (*linalg.Matrix, fock.Stats) {
		g, st := base(d)
		calls++
		if calls == 2 { // corrupt iteration 2's first build only
			integrity.PoisonNaN(g.Data, 5)
		}
		return g, st
	}
	tel := telemetry.NewSession()
	res, err := RunRHF(eng, poisoning, Options{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || math.Abs(res.Energy-ref.Energy) > 1e-8 {
		t.Fatalf("E = %.12f, want %.12f", res.Energy, ref.Energy)
	}
	if !res.History[1].Recomputed {
		t.Fatalf("iteration 2 not flagged Recomputed: %+v", res.History[1])
	}
	snap := tel.Registry.Snapshot()
	if snap.Counters["sdc.detected.fock"] != 1 || snap.Counters["integrity.fock.recomputed"] != 1 {
		t.Fatalf("fock detection counters wrong: %+v", snap.Counters)
	}
}

// TestPersistentFockCorruptionErrors: when the rebuilt Fock is corrupt
// too, RunRHF must fail with a diagnostic instead of iterating on
// garbage.
func TestPersistentFockCorruptionErrors(t *testing.T) {
	_, eng := serialSCF(t, molecule.H2(), "sto-3g", Options{})
	sch := integrals.ComputeSchwarz(eng)
	base := SerialBuilder(eng, sch, 0)
	always := func(d *linalg.Matrix) (*linalg.Matrix, fock.Stats) {
		g, st := base(d)
		integrity.PoisonNaN(g.Data, 0)
		return g, st
	}
	if _, err := RunRHF(eng, always, Options{}); err == nil {
		t.Fatal("persistently corrupt Fock build did not error")
	}
}

// TestWatchdogConvergesOscillatingSCF is the satellite ladder test (run
// under -race in tier 2): a feedback term G' = G + k (D - D_prev) makes
// the un-extrapolated Roothaan iteration oscillate without converging;
// the watchdog must walk the ladder and converge it. At the fixed point
// D = D_prev the feedback vanishes, so the converged energy is the clean
// answer.
func TestWatchdogConvergesOscillatingSCF(t *testing.T) {
	ref, eng := serialSCF(t, molecule.Water(), "sto-3g", Options{})
	sch := integrals.ComputeSchwarz(eng)
	const kappa = 0.3
	osc := func() Builder {
		base := SerialBuilder(eng, sch, 0)
		var dPrev *linalg.Matrix
		return func(d *linalg.Matrix) (*linalg.Matrix, fock.Stats) {
			g, st := base(d)
			if dPrev != nil {
				g.AxpyFrom(kappa, d)
				g.AxpyFrom(-kappa, dPrev)
			}
			dPrev = d.Clone()
			return g, st
		}
	}

	// Without the watchdog (and without DIIS, which the ladder manages)
	// the case must genuinely fail to converge — otherwise this test
	// proves nothing.
	bare, err := RunRHF(eng, osc(), Options{disableDI: true, disableWatchdog: true, MaxIter: 60})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Converged {
		t.Fatalf("oscillating case converged without the watchdog in %d iterations — raise kappa", bare.Iterations)
	}

	tel := telemetry.NewSession()
	res, err := RunRHF(eng, osc(), Options{disableDI: true, MaxIter: 200, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("watchdog did not converge the oscillating case in %d iterations", res.Iterations)
	}
	if math.Abs(res.Energy-ref.Energy) > 1e-6 {
		t.Fatalf("degraded run E = %.12f, clean %.12f", res.Energy, ref.Energy)
	}
	var rungs []string
	for _, it := range res.History {
		if it.Degrade != "" {
			rungs = append(rungs, it.Degrade)
		}
	}
	if len(rungs) == 0 {
		t.Fatal("no ladder escalations recorded in History")
	}
	snap := tel.Registry.Snapshot()
	if snap.Counters["integrity.watchdog.escalations"] != int64(len(rungs)) {
		t.Fatalf("escalation counter %d != History records %d",
			snap.Counters["integrity.watchdog.escalations"], len(rungs))
	}
}

// TestWatchdogSilentOnHealthyRun: a well-behaved SCF must never trip the
// ladder — degradation is for sick runs only.
func TestWatchdogSilentOnHealthyRun(t *testing.T) {
	res, _ := serialSCF(t, molecule.Water(), "sto-3g", Options{})
	for i, it := range res.History {
		if it.Degrade != "" || it.Recomputed {
			t.Fatalf("healthy iteration %d degraded: %+v", i+1, it)
		}
	}
}

// TestFockSDCInjectionParallel drives the SiteFock hook through real
// parallel builds: a NaN scheduled into rank 1's second Fock task rides
// the reduction into every rank's Fock matrix, where the per-iteration
// validator must quarantine it, trigger a clean recompute, and converge
// to the reference energy — with sdc.detected == sdc.injected.
func TestFockSDCInjectionParallel(t *testing.T) {
	eng, sch, ref := resilientSetup(t)
	cases := []struct {
		alg            Algorithm
		ranks, threads int
		rank           int // rank the corruption is scheduled on
	}{
		// mpi-only: the SiteFock clock ticks once per scanned pair, the
		// same on every rank, so scheduling on rank 1 of 2 is
		// deterministic — and the poison must cross the gsumf to rank 0.
		{AlgMPIOnly, 2, 0, 1},
		// resilient-fock: the clock ticks per claimed lease, which is racy
		// across ranks; one rank claims every lease deterministically.
		{AlgResilientFock, 1, 0, 0},
		// shared-fock 1x2: the clock ticks per master draw, and the write
		// lands in the shared accumulator while the rest of the team waits
		// at teamFetch's one barrier — under -race this is the proof that
		// the window is still fenced.
		{AlgSharedFock, 1, 2, 0},
	}
	for _, tc := range cases {
		t.Run(string(tc.alg), func(t *testing.T) {
			tel := telemetry.NewSession()
			p := resilient(tc.ranks)
			p.Algorithm, p.Threads, p.SCF.Telemetry = tc.alg, tc.threads, tel
			p.Fault = &mpi.FaultPlan{
				Corrupts: []mpi.Corrupt{{Rank: tc.rank, Site: mpi.SiteFock, After: 2,
					Kind: mpi.CorruptNaN, Index: 0}},
			}
			res, err := run(eng, sch, p)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged || math.Abs(res.Energy-ref.Energy) > 1e-8 {
				t.Fatalf("E = %.12f, want %.12f", res.Energy, ref.Energy)
			}
			recomputed := false
			for _, it := range res.History {
				recomputed = recomputed || it.Recomputed
			}
			if !recomputed {
				t.Fatal("no iteration flagged Recomputed")
			}
			snap := tel.Registry.Snapshot()
			if snap.Counters["sdc.injected"] != 1 || snap.Counters["sdc.detected"] != 1 {
				t.Fatalf("injected=%d detected=%d, want 1/1",
					snap.Counters["sdc.injected"], snap.Counters["sdc.detected"])
			}
			if snap.Counters["sdc.detected.fock"] != 1 ||
				snap.Counters["integrity.fock.recomputed"] != 1 {
				t.Fatalf("fock detection counters wrong: %+v", snap.Counters)
			}
		})
	}
}

// TestCheckpointCorruptionDetectedOnRestart is the end-to-end checkpoint
// SDC path: a bit-flip lands on the serialized bytes of iteration 2's
// checkpoint write, a rank death at the start of iteration 3 forces a
// restart, and the driver must reject the corrupt checkpoint via the
// CRC, fall back to the standard guess, and still converge — with
// sdc.detected == sdc.injected.
func TestCheckpointCorruptionDetectedOnRestart(t *testing.T) {
	eng, sch, ref := resilientSetup(t)
	tel := telemetry.NewSession()
	p := resilient(3)
	p.Algorithm, p.SCF.Telemetry = AlgMPIOnly, tel
	p.Fault = &mpi.FaultPlan{
		// DLBReset barriers twice per Fock build: the fifth barrier is
		// the start of iteration 3, so the corrupted iteration-2
		// checkpoint is the latest one when the restart loads it.
		Kills:    []mpi.Kill{{Rank: 1, Site: mpi.SiteBarrier, After: 5}},
		Corrupts: []mpi.Corrupt{{Rank: 0, Site: mpi.SiteCheckpoint, After: 2, Kind: mpi.CorruptBitFlip, Index: 120, Bit: 4}},
	}
	res, err := run(eng, sch, p)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Recovery
	if !res.Converged || math.Abs(res.Energy-ref.Energy) > 1e-8 {
		t.Fatalf("E = %.12f, want %.12f", res.Energy, ref.Energy)
	}
	if rec.CorruptCheckpoints != 1 {
		t.Fatalf("corrupt checkpoint not detected: %+v", rec)
	}
	if rec.GuessRestarts != 1 || rec.CheckpointRestarts != 0 {
		t.Fatalf("restart should have fallen back to the guess: %+v", rec)
	}
	snap := tel.Registry.Snapshot()
	if snap.Counters["sdc.injected"] != 1 || snap.Counters["sdc.detected"] != 1 {
		t.Fatalf("injected=%d detected=%d, want 1/1",
			snap.Counters["sdc.injected"], snap.Counters["sdc.detected"])
	}
	if snap.Counters["sdc.detected.checkpoint"] != 1 {
		t.Fatalf("checkpoint detection not attributed: %+v", snap.Counters)
	}
}

package fock

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/ddi"
	"repro/internal/integrals"
	"repro/internal/integrals/oracle"
	"repro/internal/linalg"
	"repro/internal/molecule"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// TestResilientMatchesSerial: with nobody dying, the lease-based build is
// just Algorithm 1 with one-sided accumulation — every rank must
// reproduce the serial Fock matrix, and the ranks together must compute
// each quartet exactly once.
func TestResilientMatchesSerial(t *testing.T) {
	eng, sch, d := setup(t, molecule.Water(), "6-31g")
	want, wantStats := serialBuild(eng, sch, d, DefaultTau)

	const ranks = 3
	got := make([]*linalg.Matrix, ranks)
	stats := make([]Stats, ranks)
	err := mpi.Run(ranks, func(c *mpi.Comm) {
		dx := ddi.New(c)
		var g []*linalg.Matrix
		g, stats[c.Rank()] = ResilientBuild(dx, eng, sch, Config{Quartets: oracle.New(eng.Basis)}).Build(RHF(Dense(d)))
		got[c.Rank()] = g[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for r := 0; r < ranks; r++ {
		if diff := got[r].MaxAbsDiff(want); diff > 1e-10 {
			t.Fatalf("rank %d: resilient vs serial diff = %v", r, diff)
		}
		total += stats[r].QuartetsCommitted
	}
	if total != wantStats.QuartetsComputed {
		t.Fatalf("ranks committed %d quartets, serial computed %d (not exactly once)",
			total, wantStats.QuartetsComputed)
	}
}

// TestResilientSurvivesRankDeath is the tentpole's mid-Fock-build
// acceptance test: one rank dies at a DLB draw while holding an
// uncompleted lease; the survivors re-issue it and still produce the
// exact serial Fock matrix, with the collective quartet count proving no
// quartet was lost or duplicated.
func TestResilientSurvivesRankDeath(t *testing.T) {
	eng, sch, d := setup(t, molecule.Water(), "6-31g")
	want, wantStats := serialBuild(eng, sch, d, DefaultTau)

	const ranks, victim = 4, 1
	got := make([]*linalg.Matrix, ranks)
	stats := make([]Stats, ranks)
	tel := telemetry.NewSession()
	rep, err := mpi.RunWithOptions(ranks, mpi.RunOptions{
		Deadline:  10 * time.Second,
		Telemetry: tel,
		// The victim claims its first task, then dies drawing its second —
		// leaving one computed-but-unpushed lease for survivors to re-issue.
		Fault: &mpi.FaultPlan{Kills: []mpi.Kill{{Rank: victim, Site: mpi.SiteDLB, After: 2}}},
	}, func(c *mpi.Comm) {
		if c.Rank() != victim {
			// Hold survivors back so the victim is guaranteed to be
			// holding a lease when it dies (keeps the test deterministic).
			for len(c.FailedRanks()) == 0 {
				time.Sleep(time.Millisecond)
			}
		}
		dx := ddi.New(c)
		var g []*linalg.Matrix
		g, stats[c.Rank()] = ResilientBuild(dx, eng, sch, Config{Quartets: oracle.New(eng.Basis)}).Build(RHF(Dense(d)))
		got[c.Rank()] = g[0]
	})
	if !errors.Is(err, mpi.ErrRankFailed) {
		t.Fatalf("want ErrRankFailed, got %v", err)
	}
	if got := rep.DeadRanks(); len(got) != 1 || got[0] != victim {
		t.Fatalf("DeadRanks = %v, want [%d]", got, victim)
	}
	if len(rep.Completed) != ranks-1 {
		t.Fatalf("Completed = %v, want the %d survivors", rep.Completed, ranks-1)
	}
	var total, reissued, hedged int64
	for _, r := range rep.Completed {
		if diff := got[r].MaxAbsDiff(want); diff > 1e-10 {
			t.Fatalf("survivor %d: resilient vs serial diff = %v", r, diff)
		}
		total += stats[r].QuartetsCommitted
		reissued += stats[r].TasksReissued
		hedged += stats[r].TasksHedged
	}
	// The victim never pushed anything, so the survivors alone must have
	// committed exactly the serial quartet count — the dead rank's lease
	// re-issued, nothing lost, nothing double-counted.
	if total != wantStats.QuartetsComputed {
		t.Fatalf("survivors committed %d quartets, serial computed %d (lost or duplicated work)",
			total, wantStats.QuartetsComputed)
	}
	if reissued == 0 {
		t.Fatal("no lease was re-issued despite a rank dying while holding one")
	}
	// The lease table records each re-issue once, as it happens.
	var instants int64
	for _, e := range tel.Recorder.Events() {
		if e.Cat == "recovery.reissue" {
			instants++
		}
	}
	if instants != reissued+hedged {
		t.Fatalf("%d recovery.reissue instants, want one per re-issued or hedged task (%d + %d)",
			instants, reissued, hedged)
	}
}

// TestResilientHedgesStraggler is the performance-fault acceptance test:
// one rank runs 12× slow (a sustained chaos Slowdown, not a death), the
// straggler detector flags it from the shared latency window, and fast
// ranks speculatively recompute its outstanding leases. First writer
// wins: the collective COMMITTED quartet count still equals the serial
// count exactly, and every rank still reproduces the serial Fock matrix,
// even though some quartets were computed twice.
func TestResilientHedgesStraggler(t *testing.T) {
	// A 4x4 hydrogen grid in sto-3g: 16 s-shells, 136 pair tasks — a
	// task space big enough for the straggler to accumulate the samples
	// the detector needs while fast ranks still have leases to hedge.
	mol := &molecule.Molecule{Name: "H16"}
	for a := 0; a < 16; a++ {
		mol.AddAtomAngstrom("H", float64(a%4)*1.2, float64(a/4)*1.2, 0)
	}
	eng, sch, d := setup(t, mol, "sto-3g")
	want, wantStats := serialBuild(eng, sch, d, DefaultTau)

	const ranks, slow = 3, 1
	// Whether a hedge fires at all is scheduler-dependent: on a loaded CI
	// box the fast ranks can drain the cursor before the straggler has
	// the three latency samples the detector needs, leaving nothing to
	// hedge. Retry a few builds for the liveness half; the correctness
	// invariants (serial-identical Fock, exactly-once commits) are
	// asserted unconditionally on every attempt.
	var hedged, deduped int64
	for attempt := 0; attempt < 5 && hedged == 0; attempt++ {
		got := make([]*linalg.Matrix, ranks)
		stats := make([]Stats, ranks)
		_, err := mpi.RunWithOptions(ranks, mpi.RunOptions{
			Deadline: 30 * time.Second,
			Fault: &mpi.FaultPlan{Slowdowns: []mpi.Slowdown{
				{Rank: slow, Factor: 12, Sites: []mpi.FaultSite{mpi.SiteFock}}}},
		}, func(c *mpi.Comm) {
			dx := ddi.New(c)
			var g []*linalg.Matrix
			g, stats[c.Rank()] = ResilientBuild(dx, eng, sch, Config{Quartets: oracle.New(eng.Basis)}).Build(RHF(Dense(d)))
			got[c.Rank()] = g[0]
		})
		if err != nil {
			t.Fatal(err)
		}
		var committed int64
		hedged, deduped = 0, 0
		for r := 0; r < ranks; r++ {
			if diff := got[r].MaxAbsDiff(want); diff > 1e-10 {
				t.Fatalf("rank %d: hedged resilient vs serial diff = %v", r, diff)
			}
			committed += stats[r].QuartetsCommitted
			hedged += stats[r].TasksHedged
			deduped += stats[r].TasksDeduped
		}
		if committed != wantStats.QuartetsComputed {
			t.Fatalf("ranks committed %d quartets, serial computed %d (hedging double-counted or lost work)",
				committed, wantStats.QuartetsComputed)
		}
	}
	if hedged == 0 {
		t.Fatal("straggler was never hedged despite a 12x sustained slowdown")
	}
	// Every hedge produced a duplicate result; exactly one copy won, so
	// the loser (hedger or straggler) must have been deduplicated.
	if deduped == 0 {
		t.Fatal("hedges fired but no duplicate result was ever dropped")
	}
}

// TestResilientReclaimsExpiredLease: a rank that goes silent while holding
// a lease — alive, not flagged as a straggler, just unresponsive for
// longer than half the run's deadline — has the lease reclaimed by a peer
// in the drain, so the build finishes without it. When the sleeper wakes
// its late commit loses the Reserve race and is dropped: every quartet is
// still committed exactly once.
func TestResilientReclaimsExpiredLease(t *testing.T) {
	eng, sch, d := setup(t, molecule.Water(), "6-31g")
	want, wantStats := serialBuild(eng, sch, d, DefaultTau)

	// The sleeper stalls on its FIRST task: one latency sample is too few
	// for the straggler detector, so hedging cannot take the lease first
	// and expiry is the only way the build can finish before it wakes.
	const (
		ranks, sleeper = 3, 1
		deadline       = 800 * time.Millisecond // lease TTL = 400ms
		stall          = 650 * time.Millisecond
	)
	got := make([]*linalg.Matrix, ranks)
	stats := make([]Stats, ranks)
	tel := telemetry.NewSession()
	_, err := mpi.RunWithOptions(ranks, mpi.RunOptions{
		Deadline:  deadline,
		Telemetry: tel,
		Fault: &mpi.FaultPlan{Delays: []mpi.Delay{
			{Rank: sleeper, Site: mpi.SiteFock, After: 1, Sleep: stall}}},
	}, func(c *mpi.Comm) {
		dx := ddi.New(c)
		var g []*linalg.Matrix
		g, stats[c.Rank()] = ResilientBuild(dx, eng, sch, Config{Quartets: oracle.New(eng.Basis)}).Build(RHF(Dense(d)))
		got[c.Rank()] = g[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	var total Stats
	for r := 0; r < ranks; r++ {
		if diff := got[r].MaxAbsDiff(want); diff > 1e-10 {
			t.Fatalf("rank %d: resilient vs serial diff = %v", r, diff)
		}
		total.Add(stats[r])
	}
	if total.QuartetsCommitted != wantStats.QuartetsComputed {
		t.Fatalf("ranks committed %d quartets, serial computed %d (not exactly once)",
			total.QuartetsCommitted, wantStats.QuartetsComputed)
	}
	if total.TasksReissued == 0 {
		t.Fatal("the sleeper's lease was never re-issued")
	}
	if stats[sleeper].TasksDeduped == 0 {
		t.Fatal("the woken rank's late commit was not dropped as a duplicate")
	}
	if got := tel.Counter("ddi.lease.expired").Value(); got == 0 {
		t.Fatal("ddi.lease.expired = 0: the lease was not reclaimed through the TTL path")
	}
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// resilientRig is one rank's resilient-build machinery without the drain,
// so a test can stage tasks and flush them in an order it chooses: a
// resilient builder's walker with its channels bound to the builder's
// staging, the lease table with every task leased to this rank, and the
// accumulation window.
type resilientRig struct {
	w     *walker
	stage *staging
	lease *ddi.LeaseDLB
	win   *mpi.Win
	n     int
}

func newResilientRig(t *testing.T, c *mpi.Comm, eng *integrals.Engine, sch *integrals.Schwarz, d *linalg.Matrix) *resilientRig {
	dx := ddi.New(c)
	b := ResilientBuild(dx, eng, sch, Config{Quartets: oracle.New(eng.Basis)})
	b.prepare(RHF(Dense(d)))
	r := &resilientRig{w: &b.lanes[0], stage: b.lanes[0].chans[0].out.(*pendingSink).stage, n: eng.Basis.NumBF}
	total := NumPairs(len(r.w.shells))
	r.lease = dx.NewLeaseDLB(total)
	if idxs, ok := r.lease.DrawChunk(nil, total); !ok || len(idxs) != total {
		t.Errorf("drew %d of %d leases", len(idxs), total)
	}
	r.win = c.WinCreate(r.n*r.n, 0)
	return r
}

// fock reads the window back as the build does.
func (r *resilientRig) fock() *linalg.Matrix {
	g := make([]float64, r.n*r.n)
	r.win.Get(0, g)
	return r.w.lay.finalize(g)
}

// TestResilientFlushDropsLoser: a flush whose pending tasks are winner,
// Reserve-loser, winner commits both winners and drops the loser — the
// straggler's late copy of a task a hedger already committed — without
// disturbing the offsets of the task after it. Every quartet is
// committed exactly once and the Fock matrix is the serial one.
func TestResilientFlushDropsLoser(t *testing.T) {
	eng, sch, d := setup(t, molecule.Water(), "6-31g")
	want, wantStats := serialBuild(eng, sch, d, DefaultTau)
	err := mpi.Run(1, func(c *mpi.Comm) {
		r := newResilientRig(t, c, eng, sch, d)
		st := &r.w.st
		total := NumPairs(len(r.w.shells))
		const a, dup, b = 5, 12, 20
		// The first copy of dup commits on its own.
		r.stage.compute(r.w, dup, 0)
		r.stage.flush(r.lease, r.win, st)
		if st.TasksDeduped != 0 || st.QuartetsCommitted == 0 {
			t.Errorf("first copy: %d deduped, %d quartets committed", st.TasksDeduped, st.QuartetsCommitted)
		}
		// One flush: winner, the duplicate, winner.
		for _, ij := range []int{a, dup, b} {
			r.stage.compute(r.w, ij, 0)
		}
		if blo, bhi := r.stage.tasks[1].blo, r.stage.tasks[1].bhi; blo == bhi {
			t.Errorf("the duplicate staged no blocks")
		}
		committed := st.QuartetsCommitted
		r.stage.flush(r.lease, r.win, st)
		if st.TasksDeduped != 1 {
			t.Errorf("TasksDeduped = %d, want 1 (the duplicate)", st.TasksDeduped)
		}
		if len(r.stage.tasks)+len(r.stage.blocks)+len(r.stage.val) != 0 {
			t.Errorf("flush left %d tasks, %d blocks, %d values staged", len(r.stage.tasks), len(r.stage.blocks), len(r.stage.val))
		}
		if st.QuartetsCommitted == committed {
			t.Errorf("the winners around the duplicate committed nothing")
		}
		for ij := 0; ij < total; ij++ {
			if ij != a && ij != dup && ij != b {
				r.stage.compute(r.w, ij, 0)
			}
		}
		r.stage.flush(r.lease, r.win, st)
		if st.QuartetsCommitted != wantStats.QuartetsComputed {
			t.Errorf("committed %d quartets, serial computed %d", st.QuartetsCommitted, wantStats.QuartetsComputed)
		}
		if diff := r.fock().MaxAbsDiff(want); diff > 1e-12 {
			t.Errorf("Fock vs serial: %.3g", diff)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestResilientSDCStaysInItsTask: a corruption scheduled for the second
// of three staged tasks lands in that task's own block records — at the
// first value of its first block for index 0, at the last value of its
// last block for an index past its end — and every other staged value is
// bit-identical to a clean staging of the same tasks.
func TestResilientSDCStaysInItsTask(t *testing.T) {
	eng, sch, d := setup(t, molecule.Water(), "6-31g")
	tasks := []int{5, 12, 20}
	stageTasks := func(fault *mpi.FaultPlan) (val []float64, spans [][2]int) {
		_, err := mpi.RunWithOptions(1, mpi.RunOptions{Fault: fault}, func(c *mpi.Comm) {
			r := newResilientRig(t, c, eng, sch, d)
			for _, ij := range tasks {
				r.stage.compute(r.w, ij, 0)
			}
			// A task's values are those of its block records, in order.
			for _, task := range r.stage.tasks {
				lo := task.lo
				for _, b := range r.stage.blocks[task.blo:task.bhi] {
					val = append(val, r.stage.val[lo:lo+b.n]...)
					lo += b.n
				}
				if lo != task.hi {
					t.Errorf("task %d: its block records end at %d, its values at %d", task.ij, lo, task.hi)
				}
				spans = append(spans, [2]int{task.lo, task.hi})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return val, spans
	}
	clean, spans := stageTasks(nil)
	hit := spans[1]
	if hit[0] == hit[1] || spans[0][0] == spans[0][1] || spans[2][0] == spans[2][1] {
		t.Fatalf("a task staged no values: %v", spans)
	}
	for _, tc := range []struct {
		name  string
		index int
		at    int
	}{{"first", 0, hit[0]}, {"past the end", 1 << 30, hit[1] - 1}} {
		t.Run(tc.name, func(t *testing.T) {
			got, _ := stageTasks(&mpi.FaultPlan{Corrupts: []mpi.Corrupt{
				{Rank: 0, Site: mpi.SiteFock, After: 2, Kind: mpi.CorruptNaN, Index: tc.index}}})
			for k := range clean {
				switch {
				case k == tc.at:
					if !math.IsNaN(got[k]) {
						t.Errorf("value %d (task 2 is [%d, %d)) = %v, want the NaN", k, hit[0], hit[1], got[k])
					}
				case math.Float64bits(got[k]) != math.Float64bits(clean[k]):
					t.Errorf("value %d (task 2 is [%d, %d)) = %v, clean %v", k, hit[0], hit[1], got[k], clean[k])
				}
			}
		})
	}
}

// TestResilientStagingReuse pins what a resilient build allocates once
// its builder has run a build: the bytes of a second and later build,
// water/6-31G on one rank, over an ERI source with no scratch of its
// own. The commit staging the builder owns is sized once, when it binds
// its channels, and no build grows it; what is left is the accumulation
// window, the lease table and the result matrix, 4,304 bytes. It was
// 365,839 bytes per build while every task staged into slices of its
// own, 11,630 while tasks staged (slot, value) pairs, and 11,102 while
// the staging came from a package pool and the walker, blocking,
// blocked density and digest scratch were made per build.
func TestResilientStagingReuse(t *testing.T) {
	eng, sch, d := setup(t, molecule.Water(), "6-31g")
	var perBuild uint64
	var staged int
	err := mpi.Run(1, func(c *mpi.Comm) {
		b := ResilientBuild(ddi.New(c), eng, sch, Config{Quartets: flatSource(eng.Basis.Shells)})
		chans := RHF(Dense(d))
		b.prepare(chans) // sizes the staging
		st := b.lanes[0].chans[0].out.(*pendingSink).stage
		sized := [2]int{cap(st.val), cap(st.blocks)}
		b.Build(chans) // grows the walker's buffers
		const rounds, builds = 3, 4
		perBuild = math.MaxUint64
		for range rounds {
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			for range builds {
				b.Build(chans)
			}
			runtime.ReadMemStats(&m1)
			perBuild = min(perBuild, (m1.TotalAlloc-m0.TotalAlloc)/builds)
		}
		if got := [2]int{cap(st.val), cap(st.blocks)}; got != sized {
			t.Errorf("the builds grew the staging's values and block records from %v to %v", sized, got)
		}
		staged = 16*cap(st.blocks) + 8*cap(st.val)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d bytes per build; the staging holds %d bytes", perBuild, staged)
	const ceiling = 6 << 10
	if perBuild > ceiling {
		t.Errorf("%d bytes per resilient build, want <= %d", perBuild, ceiling)
	}
}

// TestResilientBuildsAreCollected: a resilient build's accumulation
// window and lease tables go with its handles once both ranks have
// created them, so 100 builds on one 2-rank world keep no more heap than
// 10 do. The system is 64 hydrogen atoms 30 bohr apart: Schwarz screening
// leaves a build only the (ii|jj) quartets, while each build creates
// ≈ 150 KB of windows (a UHF accumulation window of 3·64² floats and
// lease tables over 2,080 pairs).
func TestResilientBuildsAreCollected(t *testing.T) {
	if raceEnabled {
		t.Skip("110 builds take half a minute under the race detector; the heap bound does not need it")
	}
	mol := &molecule.Molecule{Name: "H64 chain"}
	for i := range 64 {
		mol.Atoms = append(mol.Atoms, molecule.Atom{Z: 1, Symbol: "H", Pos: [3]float64{30 * float64(i), 0, 0}})
	}
	eng, sch, d := setup(t, mol, "sto-3g")
	src := integrals.NewPairCache(eng, 0)
	kept := func(builds int) uint64 {
		var inUse uint64
		err := mpi.Run(2, func(c *mpi.Comm) {
			b := ResilientBuild(ddi.New(c), eng, sch, Config{Quartets: src})
			for range builds {
				b.Build(UHF(Dense(d), Dense(d), Dense(d)))
			}
			c.Barrier()
			if c.Rank() == 0 {
				var ms runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&ms)
				inUse = ms.HeapInuse
			}
			c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return inUse
	}
	few, many := kept(10), kept(100)
	if many > few+1<<20 {
		t.Errorf("100 resilient builds keep %d bytes of heap, 10 builds %d: %d more, want at most 1 MiB",
			many, few, many-few)
	}
}

package fock

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ddi"
	"repro/internal/distmat"
	"repro/internal/integrals"
	"repro/internal/integrals/oracle"
	"repro/internal/linalg"
	"repro/internal/molecule"
	"repro/internal/mpi"
)

// The conformance table: every preset x channel list x (ranks, threads)
// x system must reproduce the dense N^4 oracle, and the ranks together
// must evaluate each symmetry-unique quartet exactly once. The presets
// evaluate through the production pair cache; the direct oracle is the
// reference side only.

// parallelPreset constructs one preset on one rank for nchan channels
// and returns its build of a density list: [D] for the RHF channel list,
// [Dtotal, Dalpha, Dbeta] for UHF.
type parallelPreset func(dx *ddi.Context, eng *integrals.Engine, sch *integrals.Schwarz,
	nchan int, cfg Config) presetBuild

type presetBuild func(dens []*linalg.Matrix) ([]*linalg.Matrix, Stats, error)

func channelsOf[D any](dens []D, read func(D) Density) []Channel {
	if len(dens) == 1 {
		return RHF(read(dens[0]))
	}
	return UHF(read(dens[0]), read(dens[1]), read(dens[2]))
}

func replicatedPreset(construct func(*ddi.Context, *integrals.Engine, *integrals.Schwarz, Config) *Builder) parallelPreset {
	return func(dx *ddi.Context, eng *integrals.Engine, sch *integrals.Schwarz, _ int, cfg Config) presetBuild {
		b := construct(dx, eng, sch, cfg)
		return func(dens []*linalg.Matrix) ([]*linalg.Matrix, Stats, error) {
			g, st := b.Build(channelsOf(dens, Dense))
			return g, st, nil
		}
	}
}

// tiledPreset builds into distributed F matrices of 3x3 tiles through
// 6-tile caches; each build scatters its densities into distributed D
// matrices and gathers the result.
func tiledPreset(dx *ddi.Context, eng *integrals.Engine, sch *integrals.Schwarz,
	nchan int, cfg Config) presetBuild {
	n := eng.Basis.NumBF
	grid := distmat.NewGrid(dx.Comm.Rank(), dx.Comm.Size())
	ds := make([]*distmat.BlockMat, nchan)
	readers := make([]*distmat.TileReader, nchan)
	fs := make([]*distmat.BlockMat, nchan)
	accums := make([]*distmat.TileAccum, nchan)
	for c := range fs {
		ds[c] = distmat.New(grid, dx, n, 3)
		readers[c] = distmat.NewTileReader(ds[c], 6)
		fs[c] = distmat.New(grid, dx, n, 3)
		accums[c] = distmat.NewTileAccum(fs[c], 6)
	}
	b := TiledBuild(dx, eng, sch, accums, cfg)
	chans := channelsOf(readers, FromTiles)
	return func(dens []*linalg.Matrix) ([]*linalg.Matrix, Stats, error) {
		for c, d := range dens {
			if err := ds[c].ScatterDense(d); err != nil {
				return nil, Stats{}, err
			}
			readers[c].Reset()
			fs[c].Zero()
		}
		_, st := b.Build(chans)
		out := make([]*linalg.Matrix, len(fs))
		for c, f := range fs {
			distmat.UnfoldLower(f)
			g, err := f.GatherVerified()
			if err != nil {
				return nil, Stats{}, err
			}
			out[c] = g
		}
		return out, st, nil
	}
}

var conformancePresets = []struct {
	name  string
	build parallelPreset
}{
	{"mpi-only", replicatedPreset(MPIOnlyBuild)},
	{"private-fock", replicatedPreset(PrivateFockBuild)},
	{"shared-fock", replicatedPreset(SharedFockBuild)},
	{"resilient-fock", replicatedPreset(ResilientBuild)},
	{"tiled", tiledPreset},
}

func TestConformance(t *testing.T) {
	systems := []struct {
		mol *molecule.Molecule
		set string
	}{
		{molecule.H2(), "sto-3g"}, // 3 pair tasks: (6,2) leaves ranks idle in every preset
		{molecule.Water(), "sto-3g"},
		{molecule.Water(), "6-31g"},
		{molecule.Methane(), "6-31g(d)"},      // d functions: the L=2 paths
		{molecule.GrapheneFlake(4), "sto-3g"}, // the paper's workload type; Schwarz screening is active
	}
	shapes := []struct{ ranks, threads int }{{1, 1}, {2, 1}, {1, 3}, {3, 2}, {6, 2}}

	for _, sys := range systems {
		eng, sch, d := setup(t, sys.mol, sys.set)
		pc := integrals.NewPairCache(eng, 0)
		nocc := sys.mol.NumElectrons() / 2
		// Two different spin densities: alpha fills one orbital more than
		// the closed shell, beta drops the lowest one.
		dA := orbitalDensity(eng, 0, nocc+1, 1)
		dB := orbitalDensity(eng, 1, nocc, 1)
		dT := dA.Clone()
		dT.AxpyFrom(1, dB)
		ref := oracle.New(eng.Basis) // one N^4 tensor per system, contracted by both JK calls and Fock2e
		jT, kA := ref.JK(dT, dA)
		_, kB := ref.JK(dT, dB)

		for _, cl := range []struct {
			name string
			dens []*linalg.Matrix
			want []*linalg.Matrix
		}{
			{"rhf", []*linalg.Matrix{d}, []*linalg.Matrix{ref.Fock2e(d)}},
			{"uhf", []*linalg.Matrix{dT, dA, dB}, []*linalg.Matrix{jT, kA, kB}},
		} {
			name := fmt.Sprintf("%s/%s/%s", sys.mol.Name, sys.set, cl.name)
			check := func(t *testing.T, who string, got []*linalg.Matrix) {
				t.Helper()
				if len(got) != len(cl.want) {
					t.Fatalf("%s: %d matrices, want %d", who, len(got), len(cl.want))
				}
				for c := range got {
					if diff := got[c].MaxAbsDiff(cl.want[c]); diff > 1e-10 {
						t.Fatalf("%s channel %d: diff vs dense oracle = %v", who, c, diff)
					}
				}
			}
			var serialStats Stats
			t.Run(name+"/serial", func(t *testing.T) {
				var got []*linalg.Matrix
				got, serialStats = SerialBuildN(eng, pc, sch, DefaultTau).Build(channelsOf(cl.dens, Dense))
				check(t, "serial", got)
				if serialStats.QuartetsComputed == 0 {
					t.Fatal("no quartets computed")
				}
			})
			for _, p := range conformancePresets {
				for _, sh := range shapes {
					t.Run(fmt.Sprintf("%s/%s/%dx%d", name, p.name, sh.ranks, sh.threads), func(t *testing.T) {
						got := make([][]*linalg.Matrix, sh.ranks)
						stats := make([]Stats, sh.ranks)
						errs := make([]error, sh.ranks)
						err := mpi.Run(sh.ranks, func(c *mpi.Comm) {
							r := c.Rank()
							build := p.build(ddi.New(c), eng, sch, len(cl.dens), Config{Threads: sh.threads, Quartets: pc})
							got[r], stats[r], errs[r] = build(cl.dens)
						})
						if err != nil {
							t.Fatal(err)
						}
						var total Stats
						for r := range got {
							if errs[r] != nil {
								t.Fatalf("rank %d: %v", r, errs[r])
							}
							check(t, fmt.Sprintf("rank %d", r), got[r])
							total.Add(stats[r])
						}
						// Each quartet belongs to exactly one rank. Under the
						// resilient preset's hedging a quartet may be computed
						// twice but commits once.
						once := total.QuartetsComputed
						if p.name == "resilient-fock" {
							once = total.QuartetsCommitted
						}
						if once != serialStats.QuartetsComputed {
							t.Fatalf("ranks computed %d quartets, serial %d", once, serialStats.QuartetsComputed)
						}
						// Shared-fock's ij prescreening skips whole tasks
						// without counting their quartets; its counts are
						// pinned in TestSharedFockScreeningCounts.
						if p.name != "shared-fock" && p.name != "resilient-fock" &&
							total.QuartetsScreened != serialStats.QuartetsScreened {
							t.Fatalf("ranks screened %d quartets, serial %d",
								total.QuartetsScreened, serialStats.QuartetsScreened)
						}
					})
				}
			}
		}
	}
}

// serialPreset is the serial builder in the conformance table's form: on
// every rank, the whole build.
func serialPreset(_ *ddi.Context, eng *integrals.Engine, sch *integrals.Schwarz, _ int, cfg Config) presetBuild {
	b := SerialBuildN(eng, cfg.Quartets, sch, DefaultTau)
	return func(dens []*linalg.Matrix) ([]*linalg.Matrix, Stats, error) {
		g, st := b.Build(channelsOf(dens, Dense))
		return g, st, nil
	}
}

// TestBuilderReuse: a builder clears what it owns between builds and
// refills its densities. On one rank and one thread, for every preset
// and both channel lists, each build on a reused builder — of the same
// densities twice, then of other densities, then of the first again — is
// bit-identical, counters included, to a fresh builder's build of the
// same densities. At 2x2 the DLB deals the tasks differently each build,
// so the results agree to 1e-12.
func TestBuilderReuse(t *testing.T) {
	eng, sch, d := setup(t, molecule.Water(), "6-31g")
	pc := integrals.NewPairCache(eng, 0)
	dA := orbitalDensity(eng, 0, 6, 1)
	dB := orbitalDensity(eng, 1, 5, 1)
	dT := dA.Clone()
	dT.AxpyFrom(1, dB)
	presets := append([]struct {
		name  string
		build parallelPreset
	}{{"serial", serialPreset}}, conformancePresets...)
	for _, p := range presets {
		for _, cl := range []struct {
			name        string
			dens, other []*linalg.Matrix
		}{
			{"rhf", []*linalg.Matrix{d}, []*linalg.Matrix{dA}},
			{"uhf", []*linalg.Matrix{dT, dA, dB}, []*linalg.Matrix{dA, dB, dT}},
		} {
			for _, sh := range []struct{ ranks, threads int }{{1, 1}, {2, 2}} {
				exact := sh.ranks == 1
				t.Run(fmt.Sprintf("%s/%s/%dx%d", p.name, cl.name, sh.ranks, sh.threads), func(t *testing.T) {
					err := mpi.Run(sh.ranks, func(c *mpi.Comm) {
						dx, cfg := ddi.New(c), Config{Threads: sh.threads, Quartets: pc}
						type result struct {
							g  []*linalg.Matrix
							st Stats
						}
						run := func(build presetBuild, dens []*linalg.Matrix) result {
							g, st, err := build(dens)
							if err != nil {
								t.Error(err)
							}
							return result{g, st}
						}
						fresh := func(dens []*linalg.Matrix) result {
							return run(p.build(dx, eng, sch, len(cl.dens), cfg), dens)
						}
						reused := p.build(dx, eng, sch, len(cl.dens), cfg)
						first := run(reused, cl.dens)
						// Each pair: a build on the reused builder, and what it must equal.
						pairs := [][2]result{{run(reused, cl.dens), first}, {run(reused, cl.other), fresh(cl.other)}}
						pairs = append(pairs, [2]result{run(reused, cl.dens), first}, [2]result{fresh(cl.dens), first})
						if c.Rank() != 0 {
							return
						}
						for k, pr := range pairs {
							for ch := range pr[0].g {
								diff := pr[0].g[ch].MaxAbsDiff(pr[1].g[ch])
								if exact && !bitIdentical(pr[0].g[ch], pr[1].g[ch]) || diff > 1e-12 {
									t.Errorf("build %d channel %d: differs from its reference by %.3g", k+2, ch, diff)
								}
							}
							if exact && pr[0].st != pr[1].st {
								t.Errorf("build %d counters %+v, its reference's %+v", k+2, pr[0].st, pr[1].st)
							}
						}
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

func bitIdentical(a, b *linalg.Matrix) bool {
	for x := range a.Data {
		if math.Float64bits(a.Data[x]) != math.Float64bits(b.Data[x]) {
			return false
		}
	}
	return true
}

// TestWarmBuildAllocations: what a warm build allocates does not grow
// with the work. On one rank, a builder's second and later builds make
// as many allocations on benzene/STO-3G (36 functions, 13,146 quartets)
// as on water/6-31G (13 functions): the result matrices — all the serial
// build allocates — plus a fixed few for the closing gsumf and, at two
// threads, one goroutine start per thread of the OpenMP region. The ERI
// source has no scratch of its own, so the count is the build's alone.
func TestWarmBuildAllocations(t *testing.T) {
	presets := []struct {
		name      string
		threads   int
		construct func(*ddi.Context, *integrals.Engine, *integrals.Schwarz, Config) *Builder
	}{
		{"serial", 1, func(_ *ddi.Context, eng *integrals.Engine, sch *integrals.Schwarz, cfg Config) *Builder {
			return SerialBuildN(eng, cfg.Quartets, sch, DefaultTau)
		}},
		{"mpi-only", 1, MPIOnlyBuild},
		{"private-fock", 2, PrivateFockBuild},
		{"shared-fock", 2, SharedFockBuild},
		{"resilient", 1, ResilientBuild},
	}
	allocs := map[string][]float64{}
	for _, sys := range []struct {
		mol *molecule.Molecule
		set string
	}{{molecule.Water(), "6-31g"}, {molecule.Benzene(), "sto-3g"}} {
		eng, sch, d := setup(t, sys.mol, sys.set)
		chans := RHF(Dense(d))
		for _, p := range presets {
			err := mpi.Run(1, func(c *mpi.Comm) {
				b := p.construct(ddi.New(c), eng, sch, Config{Threads: p.threads, Quartets: flatSource(eng.Basis.Shells)})
				b.Build(chans)
				// A team barrier that parks may allocate its waiter, and a
				// loaded host parks at random: the fewest of five runs count.
				fewest := math.Inf(1)
				for range 5 {
					fewest = min(fewest, testing.AllocsPerRun(3, func() { b.Build(chans) }))
				}
				allocs[p.name] = append(allocs[p.name], fewest)
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, p := range presets {
		if got := allocs[p.name]; got[0] != got[1] {
			t.Errorf("%s: a warm build allocates %v times on water, %v on benzene", p.name, got[0], got[1])
		}
	}
	// The result: one slice, and a matrix header and its data per channel.
	if got := allocs["serial"][0]; got != 3 {
		t.Errorf("a warm serial build allocates %v times, want 3 (its result)", got)
	}
	// A 1x2 hybrid build adds one goroutine start per thread: its team
	// keeps the region, barrier and per-thread contexts across builds.
	for _, name := range []string{"private-fock", "shared-fock"} {
		if got := allocs[name][0]; got != 5 {
			t.Errorf("a warm 1x2 %s build allocates %v times, want 5 (its result and two thread starts)", name, got)
		}
	}
}

// TestSharedFockScreeningCounts pins Algorithm 3's prescreening
// accounting to the values of the pre-walker implementation: whole ij
// tasks skipped (PairsSkipped) and the screened quartets of the tasks
// that ran. The repository benchmark's exact fock.quartets_screened on
// benzene depends on them.
func TestSharedFockScreeningCounts(t *testing.T) {
	for _, tc := range []struct {
		mol                         *molecule.Molecule
		ranks, threads              int
		computed, screened, skipped int64
		short                       bool
	}{
		{molecule.GrapheneFlake(4), 1, 1, 555, 48, 3, true},
		{molecule.GrapheneFlake(4), 3, 2, 555, 48, 3, true},
		{molecule.Benzene(), 1, 2, 13146, 1206, 9, false}, // the benzene_shared workload
	} {
		if testing.Short() && !tc.short {
			continue
		}
		eng, sch, d := setup(t, tc.mol, "sto-3g")
		cfg := Config{Threads: tc.threads, Quartets: integrals.NewPairCache(eng, 0)}
		stats := make([]Stats, tc.ranks)
		err := mpi.Run(tc.ranks, func(c *mpi.Comm) {
			_, stats[c.Rank()] = SharedFockBuild(ddi.New(c), eng, sch, cfg).Build(RHF(Dense(d)))
		})
		if err != nil {
			t.Fatal(err)
		}
		var total Stats
		for _, st := range stats {
			total.Add(st)
		}
		if total.QuartetsComputed != tc.computed || total.QuartetsScreened != tc.screened ||
			total.PairsSkipped != tc.skipped {
			t.Errorf("%s %dx%d: computed/screened/skipped = %d/%d/%d, want %d/%d/%d",
				tc.mol.Name, tc.ranks, tc.threads, total.QuartetsComputed, total.QuartetsScreened,
				total.PairsSkipped, tc.computed, tc.screened, tc.skipped)
		}
	}
}

// TestTeamBarrierCounts pins the synchronisation cost of the hybrid
// presets on benzene/STO-3G at 1x2 — a machine-independent count of the
// barriers thread 0 passes in one build. Shared-Fock: one per surviving ij
// draw plus the terminating one (162+1 of 171+1 draws: the 9 prescreened
// pairs cost none), the kl loop's and the FJ flush's per task (2x162),
// and two around each of the 18 FI flushes. Private-Fock: one per i draw
// (18+1), one per collapsed loop (18), one closing the thread reduction.
// A barrier added to either task loop moves these.
func TestTeamBarrierCounts(t *testing.T) {
	eng, sch, d := setup(t, molecule.Benzene(), "sto-3g")
	cfg := Config{Threads: 2, Quartets: integrals.NewPairCache(eng, 0)}
	for _, tc := range []struct {
		name  string
		build func(*ddi.Context, *integrals.Engine, *integrals.Schwarz, Config) *Builder
		want  int64
	}{
		{"shared-fock", SharedFockBuild, 163 + 2*162 + 2*18},
		{"private-fock", PrivateFockBuild, 19 + 18 + 1},
	} {
		err := mpi.Run(1, func(c *mpi.Comm) {
			_, stats := tc.build(ddi.New(c), eng, sch, cfg).Build(RHF(Dense(d)))
			if stats.Barriers != tc.want {
				t.Errorf("%s: %d barriers per build per thread, want %d", tc.name, stats.Barriers, tc.want)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

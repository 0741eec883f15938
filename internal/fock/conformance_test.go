package fock

import (
	"fmt"
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

// parallelPreset runs one preset on one rank. dens is [D] for the RHF
// channel list and [Dtotal, Dalpha, Dbeta] for UHF.
type parallelPreset func(dx *ddi.Context, eng *integrals.Engine, sch *integrals.Schwarz,
	dens []*linalg.Matrix, cfg Config) ([]*linalg.Matrix, Stats, error)

func channelsOf[D any](dens []D, read func(D) Density) []Channel {
	if len(dens) == 1 {
		return RHF(read(dens[0]))
	}
	return UHF(read(dens[0]), read(dens[1]), read(dens[2]))
}

func replicatedPreset(build func(*ddi.Context, *integrals.Engine, *integrals.Schwarz,
	[]Channel, Config) ([]*linalg.Matrix, Stats)) parallelPreset {
	return func(dx *ddi.Context, eng *integrals.Engine, sch *integrals.Schwarz,
		dens []*linalg.Matrix, cfg Config) ([]*linalg.Matrix, Stats, error) {
		g, st := build(dx, eng, sch, channelsOf(dens, Dense), cfg)
		return g, st, nil
	}
}

// tiledPreset scatters every density into 3x3 tiles, builds into
// distributed F matrices through 6-tile caches and gathers the result.
func tiledPreset(dx *ddi.Context, eng *integrals.Engine, sch *integrals.Schwarz,
	dens []*linalg.Matrix, cfg Config) ([]*linalg.Matrix, Stats, error) {
	n := eng.Basis.NumBF
	grid := distmat.NewGrid(dx.Comm.Rank(), dx.Comm.Size())
	readers := make([]*distmat.TileReader, len(dens))
	for i, d := range dens {
		dd := distmat.New(grid, dx, n, 3)
		if err := dd.ScatterDense(d); err != nil {
			return nil, Stats{}, err
		}
		readers[i] = distmat.NewTileReader(dd, 6)
	}
	chans := channelsOf(readers, FromTiles)
	fs := make([]*distmat.BlockMat, len(chans))
	accums := make([]*distmat.TileAccum, len(chans))
	for c := range fs {
		fs[c] = distmat.New(grid, dx, n, 3)
		fs[c].Zero()
		accums[c] = distmat.NewTileAccum(fs[c], 6)
	}
	st := TiledBuild(dx, eng, sch, chans, accums, cfg)
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
				got, serialStats = SerialBuildN(eng, pc, sch, channelsOf(cl.dens, Dense), DefaultTau)
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
							got[r], stats[r], errs[r] = p.build(ddi.New(c), eng, sch, cl.dens,
								Config{Threads: sh.threads, Quartets: pc})
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
			_, stats[c.Rank()] = SharedFockBuild(ddi.New(c), eng, sch, RHF(Dense(d)), cfg)
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
		build func(*ddi.Context, *integrals.Engine, *integrals.Schwarz, []Channel, Config) ([]*linalg.Matrix, Stats)
		want  int64
	}{
		{"shared-fock", SharedFockBuild, 163 + 2*162 + 2*18},
		{"private-fock", PrivateFockBuild, 19 + 18 + 1},
	} {
		err := mpi.Run(1, func(c *mpi.Comm) {
			_, stats := tc.build(ddi.New(c), eng, sch, RHF(Dense(d)), cfg)
			if stats.Barriers != tc.want {
				t.Errorf("%s: %d barriers per build per thread, want %d", tc.name, stats.Barriers, tc.want)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/basis"
	"repro/internal/integrals"
	"repro/internal/molecule"
)

// scfWorkload is one hfrun invocation: a fixed molecule, basis and Fock
// preset. The inputs are fixed (the energy is pinned), so --seed changes
// nothing here.
type scfWorkload struct {
	name    string
	mol     string // builtin molecule name, or
	xyz     string // geometry file relative to the checkout root
	basis   string
	alg     string
	ranks   int
	threads int
}

var scfWorkloads = map[string]scfWorkload{
	wlBenzene: {name: wlBenzene, mol: "benzene", basis: "sto-3g", alg: "shared-fock", ranks: 1, threads: 2},
	wlDimer: {name: wlDimer, xyz: filepath.Join("bench", "testdata", "water_dimer.xyz"),
		basis: "6-31g(d)", alg: "private-fock", ranks: 2, threads: 1},
}

// minSCFRuns is the least number of timed hfrun processes behind a
// reported median, whatever --seconds says.
const minSCFRuns = 5

func (w scfWorkload) hfrunArgs() []string {
	args := []string{"-basis", w.basis, "-alg", w.alg,
		"-ranks", fmt.Sprint(w.ranks), "-threads", fmt.Sprint(w.threads)}
	if w.xyz != "" {
		return append([]string{"-xyz", w.xyz}, args...)
	}
	return append([]string{"-mol", w.mol}, args...)
}

func (w scfWorkload) molecule(root string) (*molecule.Molecule, error) {
	if w.xyz != "" {
		data, err := os.ReadFile(filepath.Join(root, w.xyz))
		if err != nil {
			return nil, err
		}
		return molecule.ParseXYZ(string(data))
	}
	if w.mol == "benzene" {
		return molecule.Benzene(), nil
	}
	return nil, fmt.Errorf("bench: no in-process geometry for molecule %q", w.mol)
}

// scfSetup is one timing of what every hfrun pays before its first
// iteration, by constructor.
type scfSetup struct {
	basisBuild, oneElec, schwarz, pairCache time.Duration
}

func (s scfSetup) total() time.Duration {
	return s.basisBuild + s.oneElec + s.schwarz + s.pairCache
}

// scfParts are the constructed layers the traced probes reuse.
type scfParts struct {
	bas   *basis.Basis
	eng   *integrals.Engine
	sch   *integrals.Schwarz
	cache *integrals.PairCache
}

// timeSCFSetup times the set-up constructors once, in this process.
func timeSCFSetup(mol *molecule.Molecule, basisName string) (scfSetup, scfParts, error) {
	var s scfSetup
	var p scfParts
	t0 := time.Now()
	bas, err := basis.Build(mol, basisName)
	if err != nil {
		return s, p, err
	}
	eng := integrals.NewEngine(bas)
	s.basisBuild = time.Since(t0)
	t0 = time.Now()
	eng.Overlap()
	eng.CoreHamiltonian()
	s.oneElec = time.Since(t0)
	t0 = time.Now()
	sch := integrals.ComputeSchwarz(eng)
	s.schwarz = time.Since(t0)
	t0 = time.Now()
	cache := integrals.NewPairCache(eng, 0)
	s.pairCache = time.Since(t0)
	return s, scfParts{bas: bas, eng: eng, sch: sch, cache: cache}, nil
}

// Set-up is repeated inside one run and reported as the median: at least
// setupMinReps times, and until setupBudget has been spent on it (a
// set-up of a few milliseconds gets a few hundred repetitions), at most
// setupMaxReps times. No collection is forced between repetitions: a
// forced GC made a 2 ms set-up bimodal (1.2 or 2.3 ms, by run).
const (
	setupMinReps = 5
	setupMaxReps = 200
	setupBudget  = 500 * time.Millisecond
)

// repeatSetup calls once (one timed set-up) by the rule above and returns
// the durations in seconds.
func repeatSetup(once func() (time.Duration, error)) ([]float64, error) {
	var xs []float64
	start := time.Now() // the budget also covers what once does untimed (stopping a server)
	for len(xs) < setupMinReps || (time.Since(start) < setupBudget && len(xs) < setupMaxReps) {
		d, err := once()
		if err != nil {
			return nil, err
		}
		xs = append(xs, d.Seconds())
	}
	return xs, nil
}

// measureSCFSetup repeats the set-up timing and returns the samples by
// constructor, with the layers the last repetition built.
func measureSCFSetup(mol *molecule.Molecule, basisName string) ([]scfSetup, scfParts, error) {
	var samples []scfSetup
	var parts scfParts
	_, err := repeatSetup(func() (time.Duration, error) {
		s, p, err := timeSCFSetup(mol, basisName)
		samples, parts = append(samples, s), p
		return s.total(), err
	})
	return samples, parts, err
}

// checkSCF applies the correctness check to one hfrun output: it printed
// CONVERGED and an energy within tol of the pinned reference.
func checkSCF(out string, ref, tol float64) error {
	r, err := parseHFRun(out)
	if err != nil {
		return err
	}
	if !r.Converged {
		return fmt.Errorf("hfrun did not converge in %d iterations", r.Iterations)
	}
	if d := math.Abs(r.Energy - ref); !(d <= tol) {
		return fmt.Errorf("energy %.10f differs from reference %.10f by %.3e Ha (tolerance %.0e)", r.Energy, ref, d, tol)
	}
	return nil
}

// runSCF measures an SCF workload end to end: hfrun child processes,
// one after another, until `seconds` have been measured (and at least
// minSCFRuns of them).
func runSCF(e *benchEnv, w scfWorkload, ref *reference, seconds float64) (*runResult, error) {
	res := newRunResult(w.name)
	refE, ok := ref.SCF[w.name]
	if !ok {
		return nil, fmt.Errorf("bench: no reference energy for %s", w.name)
	}
	mol, err := w.molecule(e.root)
	if err != nil {
		return nil, err
	}
	setup, err := repeatSetup(func() (time.Duration, error) {
		s, _, err := timeSCFSetup(mol, w.basis)
		return s.total(), err
	})
	if err != nil {
		return nil, err
	}

	var wall, cpu, rss []float64
	var measured time.Duration
	for n := 0; n < minSCFRuns || measured.Seconds() < seconds; n++ {
		out, u, err := e.runHFRun(w.hfrunArgs()...)
		if errors.Is(err, errNotStarted) {
			return nil, err
		}
		res.Attempted++
		if err == nil {
			err = checkSCF(out, refE, ref.ToleranceHa)
		}
		if err != nil {
			res.fail("%s run %d: %v", w.name, n+1, err)
		}
		measured += u.wall
		wall = append(wall, u.wall.Seconds())
		cpu = append(cpu, u.cpu.Seconds())
		rss = append(rss, u.rssMiB)
	}
	res.set("setup_s", median(setup), len(setup))
	res.set("time_to_solution_s", median(wall), len(wall))
	res.set("throughput_per_s", float64(len(wall))/measured.Seconds(), len(wall))
	res.set("cpu_s", median(cpu), len(cpu))
	res.set("peak_rss_mb", median(rss), len(rss))
	return res, nil
}

// Package jobs turns single-shot Hartree-Fock calculations into
// schedulable work items: a declarative job Spec with canonical content
// hashing (so byte-different but physically identical requests dedup), a
// bounded priority queue with FIFO ordering within each priority, a job
// lifecycle FSM (queued → running → done/failed/canceled) with bounded
// retry, an LRU result cache keyed by the content hash, and a runner that
// executes specs through the facade's resilient SCF entry points.
//
// The package lifts the paper's load-balancing theme one level: where
// Algorithms 2-3 distribute shell-pair tasks across ranks inside one SCF,
// this layer distributes whole SCF jobs across a worker pool inside one
// long-running service (see internal/service).
package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro"
)

// Spec.Mode names a preset of the facade's plan table
// (repro.PlanByName); these are the three the service itself submits.
const (
	ModeSerial    = "serial"    // repro.Serial: single process
	ModeParallel  = "parallel"  // repro.SharedFock on the in-process runtimes
	ModeResilient = "resilient" // repro.Resilient (default): survives rank death
)

// Spec declares one Hartree-Fock job. Exactly one of Molecule (a builtin
// or paper-system name) or XYZ (an inline geometry) selects the system.
// The zero value of every other field means "default".
type Spec struct {
	Molecule string `json:"molecule,omitempty"` // builtin name ("water") or paper system ("0.5nm")
	XYZ      string `json:"xyz,omitempty"`      // inline XYZ geometry (angstrom)
	Charge   int    `json:"charge,omitempty"`   // total charge applied to an XYZ geometry
	Basis    string `json:"basis,omitempty"`    // basis set name; default sto-3g

	Mode      string `json:"mode,omitempty"`      // a repro.PlanNames preset (default resilient)
	Algorithm string `json:"algorithm,omitempty"` // Fock preset overriding the mode's own
	Ranks     int    `json:"ranks,omitempty"`     // MPI ranks; default 2
	Threads   int    `json:"threads,omitempty"`   // OpenMP threads per rank; default 2

	MaxIter    int     `json:"max_iter,omitempty"`    // SCF iteration cap; default 100
	ConvDens   float64 `json:"conv_dens,omitempty"`   // RMS-density threshold; default 1e-8
	ConvEnergy float64 `json:"conv_energy,omitempty"` // energy threshold; default 1e-9
	Guess      string  `json:"guess,omitempty"`       // core (default) or gwh

	Priority   int    `json:"priority,omitempty"`    // higher runs first; FIFO within a priority
	TimeoutMS  int64  `json:"timeout_ms,omitempty"`  // per-job deadline; 0 = service default
	MaxRetries int    `json:"max_retries,omitempty"` // bounded retry budget; 0 = service default
	Tenant     string `json:"tenant,omitempty"`      // admission-quota bucket; "" = the anonymous tenant
}

// Normalized returns the spec with defaults applied — the form that is
// validated, hashed, and executed. It is idempotent: the basis is trimmed
// and lowercased before its default applies, so a blank basis gets it.
func (s Spec) Normalized() Spec {
	s.Basis = strings.ToLower(strings.TrimSpace(s.Basis))
	if s.Basis == "" {
		s.Basis = "sto-3g"
	}
	if s.Mode == "" {
		s.Mode = ModeResilient
	}
	if s.Mode != ModeSerial {
		if s.Ranks <= 0 {
			s.Ranks = 2
		}
		if s.Threads <= 0 {
			s.Threads = 2
		}
		if s.Algorithm == "" {
			// An unknown mode keeps the zero plan; Validate rejects it.
			plan, _ := repro.PlanByName(s.Mode)
			s.Algorithm = string(plan.Algorithm)
		}
	}
	if s.MaxIter == 0 {
		s.MaxIter = 100
	}
	if s.ConvDens == 0 {
		s.ConvDens = 1e-8
	}
	if s.ConvEnergy == 0 {
		s.ConvEnergy = 1e-9
	}
	if s.Guess == "" {
		s.Guess = "core"
	}
	return s
}

// ResolveMolecule builds the molecule the spec names: inline XYZ first,
// then builtin molecules, then paper systems. Unknown names get an error
// listing everything that would have worked.
func (s Spec) ResolveMolecule() (*repro.Molecule, error) {
	if s.XYZ != "" {
		m, err := repro.ParseXYZ(s.XYZ)
		if err != nil {
			return nil, fmt.Errorf("jobs: bad xyz: %w", err)
		}
		m.Charge = s.Charge
		return m, nil
	}
	if s.Molecule == "" {
		return nil, fmt.Errorf("jobs: spec names no molecule (set molecule or xyz)")
	}
	if m, err := repro.BuiltinMolecule(s.Molecule); err == nil {
		return m, nil
	}
	if m, err := repro.PaperSystem(s.Molecule); err == nil {
		return m, nil
	}
	return nil, fmt.Errorf("jobs: unknown molecule %q (builtins: %s; paper systems: %s; or pass an inline xyz)",
		s.Molecule, strings.Join(repro.BuiltinMoleculeNames(), ", "),
		strings.Join(repro.PaperSystemNames(), ", "))
}

// Plan resolves the normalized spec's mode and algorithm through the
// facade's plan table and fills in the run shape and SCF options.
func (s Spec) Plan() (repro.Plan, error) {
	plan, err := repro.PlanByName(s.Mode)
	if err != nil {
		return repro.Plan{}, fmt.Errorf("jobs: mode: %w", err)
	}
	if s.Mode != ModeSerial { // a serial run has no Fock preset to override
		alg, err := repro.PlanByName(s.Algorithm)
		if err != nil {
			return repro.Plan{}, fmt.Errorf("jobs: algorithm: %w", err)
		}
		plan.Algorithm = alg.Algorithm
	}
	plan.Ranks, plan.Threads = s.Ranks, s.Threads
	plan.SCF = repro.SCFOptions{
		MaxIter: s.MaxIter, ConvDens: s.ConvDens, ConvEnergy: s.ConvEnergy, Guess: s.Guess,
	}
	return plan, nil
}

// Validate checks the normalized spec end to end: the molecule resolves,
// the basis builds over it, and the mode/guess names are known. It
// returns the basis dimensions so admission can report system size
// without re-building.
func (s Spec) Validate() (repro.BasisInfo, error) {
	n := s.Normalized()
	if _, err := n.Plan(); err != nil {
		return repro.BasisInfo{}, err
	}
	switch n.Guess {
	case "core", "gwh":
	default:
		return repro.BasisInfo{}, fmt.Errorf("jobs: unknown guess %q (want core or gwh)", n.Guess)
	}
	if n.TimeoutMS < 0 || n.MaxRetries < 0 || n.MaxIter < 0 {
		return repro.BasisInfo{}, fmt.Errorf("jobs: negative timeout_ms, max_retries, or max_iter")
	}
	mol, err := n.ResolveMolecule()
	if err != nil {
		return repro.BasisInfo{}, err
	}
	info, err := repro.DescribeBasis(mol, n.Basis)
	if err != nil {
		return repro.BasisInfo{}, fmt.Errorf("jobs: %w", err)
	}
	return info, nil
}

// CanonicalHash returns a hex SHA-256 over the job's physical content:
// the canonicalized geometry (atoms sorted, coordinates fixed-point
// rounded), total charge, basis, convergence targets, iteration cap, and
// initial guess. Execution-shape fields — mode, algorithm, ranks,
// threads, priority, timeout, retries, tenant — are deliberately excluded: they
// change how the answer is computed, not what the answer is, so requests
// differing only in those dedup onto one cache entry. Atom order and XYZ
// whitespace never change the hash (see TestCanonicalHashInvariance).
func (s Spec) CanonicalHash() (string, error) {
	n := s.Normalized()
	mol, err := n.ResolveMolecule()
	if err != nil {
		return "", err
	}
	atoms := make([]string, mol.NumAtoms())
	for i, a := range mol.Atoms {
		atoms[i] = fmt.Sprintf("%d %s %s %s", a.Z,
			canonCoord(a.Pos[0]), canonCoord(a.Pos[1]), canonCoord(a.Pos[2]))
	}
	sort.Strings(atoms)

	h := sha256.New()
	fmt.Fprintf(h, "charge=%d\nbasis=%s\nmaxiter=%d\nconvdens=%.17g\nconvenergy=%.17g\nguess=%s\n",
		mol.Charge, n.Basis, n.MaxIter, n.ConvDens, n.ConvEnergy, n.Guess)
	for _, a := range atoms {
		fmt.Fprintln(h, a)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// canonCoord renders a coordinate as fixed-point nanobohr, washing out
// float formatting noise (and the -0.0 vs +0.0 split) while preserving
// far more precision than any chemically meaningful difference.
func canonCoord(v float64) string {
	r := math.Round(v * 1e9)
	if r == 0 {
		r = 0 // collapse -0
	}
	return strconv.FormatInt(int64(r), 10)
}

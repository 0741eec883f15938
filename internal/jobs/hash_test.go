package jobs

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unicode"

	"repro"
)

// waterXYZLines is a water geometry as individual atom lines, permuted
// and re-spaced by the property test below.
var waterXYZLines = []string{
	"O 0.000000 0.000000 0.117300",
	"H 0.000000 0.757200 -0.469200",
	"H 0.000000 -0.757200 -0.469200",
}

func xyzFrom(lines []string, comment string) string {
	return fmt.Sprintf("%d\n%s\n%s\n", len(lines), comment, strings.Join(lines, "\n"))
}

// injectWhitespace perturbs an atom line without changing its content:
// extra interior runs of spaces/tabs and trailing blanks.
func injectWhitespace(rng *rand.Rand, line string) string {
	fields := strings.Fields(line)
	seps := []string{" ", "  ", "\t", " \t ", "    "}
	var b strings.Builder
	if rng.Intn(2) == 0 {
		b.WriteString(seps[rng.Intn(len(seps))])
	}
	for i, f := range fields {
		if i > 0 {
			b.WriteString(seps[rng.Intn(len(seps))])
		}
		b.WriteString(f)
	}
	if rng.Intn(2) == 0 {
		b.WriteString(seps[rng.Intn(len(seps))])
	}
	return b.String()
}

// TestCanonicalHashInvariance is the property test promised by
// Spec.CanonicalHash: for N random atom permutations with random
// whitespace injected into every line, the hash is bit-identical.
func TestCanonicalHashInvariance(t *testing.T) {
	ref, err := Spec{XYZ: xyzFrom(waterXYZLines, "water"), Basis: "sto-3g"}.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		lines := append([]string(nil), waterXYZLines...)
		rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
		for i := range lines {
			lines[i] = injectWhitespace(rng, lines[i])
		}
		// The comment line and execution-shape fields must not matter either.
		s := Spec{
			XYZ:   xyzFrom(lines, fmt.Sprintf("perturbed %d", trial)),
			Basis: "STO-3G", // case-insensitive
			Mode:  []string{"", ModeSerial, ModeParallel, ModeResilient}[trial%4],
			Ranks: trial % 5, Threads: trial % 3, Priority: trial % 7,
			TimeoutMS: int64(trial), MaxRetries: trial % 2,
		}
		h, err := s.CanonicalHash()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if h != ref {
			t.Fatalf("trial %d: hash diverged\nxyz:\n%s\ngot  %s\nwant %s",
				trial, s.XYZ, h, ref)
		}
	}
}

func TestCanonicalHashSeparatesContent(t *testing.T) {
	base := Spec{Molecule: "water", Basis: "sto-3g"}
	ref, err := base.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	distinct := []Spec{
		{Molecule: "methane", Basis: "sto-3g"},           // different molecule
		{Molecule: "water", Basis: "6-31g"},              // different basis
		{Molecule: "water", Basis: "sto-3g", MaxIter: 7}, // different iteration cap
		{Molecule: "water", Basis: "sto-3g", ConvDens: 1e-6},
		{Molecule: "water", Basis: "sto-3g", Guess: "gwh"},
		{XYZ: "3\nshifted water\nO 0 0 0.2\nH 0 0.7572 -0.4692\nH 0 -0.7572 -0.4692\n"},
	}
	seen := map[string]int{ref: -1}
	for i, s := range distinct {
		h, err := s.CanonicalHash()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if prev, dup := seen[h]; dup {
			t.Fatalf("spec %d collides with spec %d (hash %s)", i, prev, h)
		}
		seen[h] = i
	}
}

func TestCanonicalHashMatchesBuiltin(t *testing.T) {
	// An inline XYZ of the builtin water must hash identically to naming
	// it — the geometry round-trips through Molecule.XYZ().
	mol, err := Spec{Molecule: "water"}.ResolveMolecule()
	if err != nil {
		t.Fatal(err)
	}
	byName, err := Spec{Molecule: "water"}.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	byXYZ, err := Spec{XYZ: mol.XYZ()}.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	if byName != byXYZ {
		t.Fatalf("builtin vs round-tripped XYZ hash mismatch:\n%s\n%s", byName, byXYZ)
	}
}

func TestSpecValidate(t *testing.T) {
	if _, err := (Spec{Molecule: "water"}).Validate(); err != nil {
		t.Fatalf("default spec should validate: %v", err)
	}
	bad := []Spec{
		{},                                     // no molecule
		{Molecule: "unobtainium"},              // unknown molecule
		{Molecule: "water", Basis: "nope"},     // unknown basis
		{Molecule: "water", Mode: "quantum"},   // unknown mode
		{Molecule: "water", Algorithm: "fast"}, // unknown Fock preset
		{Molecule: "water", Guess: "psychic"},  // unknown guess
		{Molecule: "water", TimeoutMS: -1},     // negative timeout
		{XYZ: "1\nbroken\nXx 0 0 0\n"},         // unknown element
	}
	for i, s := range bad {
		if _, err := s.Validate(); err == nil {
			t.Fatalf("spec %d (%+v) should fail validation", i, s)
		}
	}
	// The unknown-molecule error must teach the caller what exists.
	_, err := (Spec{Molecule: "unobtainium"}).Validate()
	for _, want := range []string{"water", "benzene", "0.5nm", "5.0nm"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("unknown-molecule error should list %q, got: %v", want, err)
		}
	}
}

// TestSpecPlan: mode and algorithm resolve through the facade's one plan
// table, so every preset hfrun -alg runs is a servable mode, and the
// three historical modes keep the algorithms they defaulted to.
func TestSpecPlan(t *testing.T) {
	for _, tc := range []struct {
		spec      Spec
		algorithm string
		recovery  repro.Plan
	}{
		{Spec{}, "resilient-fock", repro.Resilient},
		{Spec{Mode: ModeResilient, Algorithm: "shared-fock"}, "shared-fock", repro.Resilient},
		{Spec{Mode: ModeParallel}, "shared-fock", repro.SharedFock},
		{Spec{Mode: ModeParallel, Algorithm: "mpi-only"}, "mpi-only", repro.MPIOnly},
		{Spec{Mode: ModeSerial, Algorithm: "shared-fock"}, "", repro.Serial}, // serial ignores the preset
		{Spec{Mode: "purified"}, "purified", repro.Purified},
		{Spec{Mode: "purified-abft"}, "purified-abft", repro.PurifiedABFT},
		{Spec{Mode: "elastic"}, "resilient-fock", repro.Elastic},
	} {
		tc.spec.Molecule = "water"
		n := tc.spec.Normalized()
		p, err := n.Plan()
		if err != nil {
			t.Fatalf("%+v: %v", tc.spec, err)
		}
		if string(p.Algorithm) != tc.algorithm || p.Recovery != tc.recovery.Recovery {
			t.Errorf("%+v resolved to algorithm %q, recovery %v; want %q, %v",
				tc.spec, p.Algorithm, p.Recovery, tc.algorithm, tc.recovery.Recovery)
		}
		if p.Ranks != n.Ranks || p.Threads != n.Threads || p.SCF.MaxIter != n.MaxIter || p.SCF.Guess != n.Guess {
			t.Errorf("%+v: run shape or SCF options not carried into the plan: %+v", tc.spec, p)
		}
	}
}

// TestNormalizedBlankBasis: a whitespace-only basis is a blank basis. It
// normalizes to the default, validates, and hashes like the empty one
// (the default used to be applied before the trim, leaving "").
func TestNormalizedBlankBasis(t *testing.T) {
	blank := Spec{Molecule: "water", Basis: "  "}
	if got := blank.Normalized().Basis; got != "sto-3g" {
		t.Fatalf("blank basis normalized to %q, want sto-3g", got)
	}
	if _, err := blank.Validate(); err != nil {
		t.Fatalf("blank basis: %v", err)
	}
	h, err := blank.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Spec{blank.Normalized(), {Molecule: "water"}} {
		if hs, err := s.CanonicalHash(); err != nil || hs != h {
			t.Fatalf("%+v hashes %s (%v), want the blank basis's %s", s, hs, err, h)
		}
	}
}

// FuzzSpecCanonicalHash: Normalized is idempotent; hashing a spec and
// hashing its normalized form agree whenever both succeed; and an inline
// XYZ hashes the same with its atom lines permuted and re-spaced.
func FuzzSpecCanonicalHash(f *testing.F) {
	water := xyzFrom(waterXYZLines, "water")
	f.Add("water", "", "  ", "", "", 0, 0, 0.0, 0.0, int64(1))
	f.Add("water", "", "STO-3G", "serial", "gwh", 0, 7, 1e-6, 0.0, int64(2))
	f.Add("", water, "", "purified", "", 1, 0, 0.0, 1e-7, int64(3))
	f.Add("", water, " 6-31G ", "", "core", -1, -3, math.NaN(), 0.0, int64(4))
	f.Add("methane", "", "\t", "quantum", "psychic", 0, 100, 0.0, math.Inf(1), int64(5))
	f.Fuzz(func(t *testing.T, molecule, xyz, basis, mode, guess string, charge, maxIter int, convDens, convEnergy float64, seed int64) {
		s := Spec{
			Molecule: molecule, XYZ: xyz, Charge: charge, Basis: basis, Mode: mode,
			MaxIter: maxIter, ConvDens: convDens, ConvEnergy: convEnergy, Guess: guess,
		}
		n := s.Normalized()
		if nn := n.Normalized(); fmt.Sprintf("%#v", nn) != fmt.Sprintf("%#v", n) {
			t.Fatalf("Normalized is not idempotent:\n once  %#v\n twice %#v", n, nn)
		}
		h, err := s.CanonicalHash()
		if hn, errn := n.CanonicalHash(); err == nil && errn == nil && h != hn {
			t.Fatalf("CanonicalHash %s, of the normalized spec %s", h, hn)
		}
		if err != nil || xyz == "" {
			return
		}
		p := s
		p.XYZ = permuteXYZ(rand.New(rand.NewSource(seed)), xyz)
		if hp, err := p.CanonicalHash(); err != nil || hp != h {
			t.Fatalf("permuted, re-spaced XYZ hashes %s (%v), want %s\noriginal:\n%q\npermuted:\n%q", hp, err, h, xyz, p.XYZ)
		}
	})
}

// permuteXYZ shuffles the atom lines of an XYZ text that parses and widens
// their blanks: every run of spaces and tabs grows, and some lines gain
// leading or trailing ones. Token boundaries stay where they were.
func permuteXYZ(rng *rand.Rand, xyz string) string {
	body := strings.TrimLeftFunc(xyz, unicode.IsSpace)
	lines := strings.Split(strings.TrimRightFunc(body, unicode.IsSpace), "\n")
	var n int
	fmt.Sscanf(strings.TrimSpace(lines[0]), "%d", &n)
	atoms := lines[2 : 2+n]
	rng.Shuffle(len(atoms), func(i, j int) { atoms[i], atoms[j] = atoms[j], atoms[i] })
	for i, a := range atoms {
		var b strings.Builder
		if rng.Intn(2) == 0 {
			b.WriteString(" \t")
		}
		for _, r := range a {
			b.WriteRune(r)
			if r == ' ' || r == '\t' {
				b.WriteString([]string{" ", "\t", "  "}[rng.Intn(3)])
			}
		}
		if rng.Intn(2) == 0 {
			b.WriteString("\t ")
		}
		atoms[i] = b.String()
	}
	return strings.Join(lines, "\n")
}

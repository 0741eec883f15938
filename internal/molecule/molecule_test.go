package molecule

import (
	"math"
	"strings"
	"testing"
)

func TestNumElectrons(t *testing.T) {
	if got := Water().NumElectrons(); got != 10 {
		t.Fatalf("water electrons = %d", got)
	}
	if got := HeHPlus().NumElectrons(); got != 2 {
		t.Fatalf("HeH+ electrons = %d", got)
	}
	if got := Methane().NumElectrons(); got != 10 {
		t.Fatalf("CH4 electrons = %d", got)
	}
	if got := Benzene().NumElectrons(); got != 42 {
		t.Fatalf("benzene electrons = %d", got)
	}
}

func TestNuclearRepulsionH2(t *testing.T) {
	// Two protons at 0.74 A: E = 1/(0.74*1.8897...) hartree.
	want := 1.0 / (0.74 * BohrPerAngstrom)
	if got := H2().NuclearRepulsion(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("H2 Vnn = %v want %v", got, want)
	}
}

func TestNuclearRepulsionWater(t *testing.T) {
	// Literature value for this geometry is about 9.19 hartree.
	got := Water().NuclearRepulsion()
	if got < 8.5 || got > 9.8 {
		t.Fatalf("water Vnn = %v out of expected window", got)
	}
}

func TestZForSymbol(t *testing.T) {
	if z, err := ZForSymbol("C"); err != nil || z != 6 {
		t.Fatalf("C -> %d, %v", z, err)
	}
	if _, err := ZForSymbol("Xx"); err == nil {
		t.Fatal("expected error for unknown element")
	}
}

func TestXYZRoundTrip(t *testing.T) {
	m := Water()
	parsed, err := ParseXYZ(m.XYZ())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.NumAtoms() != 3 {
		t.Fatalf("parsed %d atoms", parsed.NumAtoms())
	}
	for i, a := range parsed.Atoms {
		for k := 0; k < 3; k++ {
			if math.Abs(a.Pos[k]-m.Atoms[i].Pos[k]) > 1e-6 {
				t.Fatalf("atom %d coord %d mismatch", i, k)
			}
		}
	}
}

func TestParseXYZErrors(t *testing.T) {
	cases := []string{
		"",
		"x\ncomment\n",
		"2\nonly one atom\nH 0 0 0\n",
		"1\nbad element\nQq 0 0 0\n",
		"1\nbad coord\nH a b c\n",
	}
	for i, c := range cases {
		if _, err := ParseXYZ(c); err == nil {
			t.Fatalf("case %d: expected parse error", i)
		}
	}
}

// TestParseXYZRejectsNonPhysical: a count below 1 and a coordinate that
// is not a finite number are refused with an error naming the line, not
// handed to an SCF that runs an empty molecule to zero energy or fails in
// the eigensolver.
func TestParseXYZRejectsNonPhysical(t *testing.T) {
	cases := []struct{ text, line string }{
		{"0\nempty\n", "line 1:"},
		{"-1\nnegative\n", "line 1:"},
		{"\n\n  -3\nnegative after blank lines\n", "line 3:"},
		{"2\nnan\nH NaN 0 0\nH 0 0 0.74\n", "line 3:"},
		{"2\ninf\nH 0 0 0\nH 0 +Inf 0.74\n", "line 4:"},
		{"1\n-inf\nH 0 0 -inf\n", "line 3:"},
		{"1\noverflows in bohr\nH 1e308 0 0\n", "line 3:"},
		{"2\nunknown\nH 0 0 0\nXx 0 0 1\n", "line 4:"},
	}
	for _, c := range cases {
		m, err := ParseXYZ(c.text)
		if err == nil {
			t.Errorf("%q: parsed %d atoms, want an error", c.text, m.NumAtoms())
			continue
		}
		if !strings.Contains(err.Error(), c.line) {
			t.Errorf("%q: error %q does not name %s", c.text, err, c.line)
		}
	}
}

// FuzzParseXYZ: whatever ParseXYZ accepts has at least one atom, finite
// coordinates and known elements, and round-trips through XYZ to the same
// atoms.
func FuzzParseXYZ(f *testing.F) {
	f.Add(Water().XYZ())
	f.Add("1\nhydrogen atom\nH 0 0 0\n")
	f.Add("2\nO2\nO 0 0 0\nO 0 0 1.2075\n")
	f.Add("2\nnan\nH NaN 0 0\nH 0 0 0.74\n")
	f.Add("-1\nnegative\n")
	f.Fuzz(func(t *testing.T, text string) {
		m, err := ParseXYZ(text)
		if err != nil {
			return
		}
		if m.NumAtoms() < 1 {
			t.Fatalf("accepted %d atoms", m.NumAtoms())
		}
		for i, a := range m.Atoms {
			if z, err := ZForSymbol(a.Symbol); err != nil || z != a.Z {
				t.Fatalf("atom %d: symbol %q, Z %d", i, a.Symbol, a.Z)
			}
			for _, v := range a.Pos {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("atom %d: non-finite position %v", i, a.Pos)
				}
			}
		}
		back, err := ParseXYZ(m.XYZ())
		if err != nil {
			t.Fatalf("XYZ of an accepted molecule does not parse: %v\n%s", err, m.XYZ())
		}
		if back.NumAtoms() != m.NumAtoms() {
			t.Fatalf("round trip: %d atoms, want %d", back.NumAtoms(), m.NumAtoms())
		}
		for i, a := range back.Atoms {
			want := m.Atoms[i]
			if a.Symbol != want.Symbol || a.Z != want.Z {
				t.Fatalf("round trip atom %d: %s, want %s", i, a.Symbol, want.Symbol)
			}
			// XYZ prints 8 decimals in angstrom.
			for k, v := range a.Pos {
				if d := math.Abs(v - want.Pos[k]); d > 1e-8+1e-14*math.Abs(want.Pos[k]) {
					t.Fatalf("round trip atom %d coord %d: %v, want %v", i, k, v, want.Pos[k])
				}
			}
		}
	})
}

func TestGrapheneFlakeBondLengths(t *testing.T) {
	m := GrapheneFlake(24)
	// Every atom must have a nearest neighbor at exactly the C-C bond
	// length (within float tolerance): the honeycomb lattice is correct.
	bond := CCBond * BohrPerAngstrom
	for i := range m.Atoms {
		nearest := math.Inf(1)
		for j := range m.Atoms {
			if i == j {
				continue
			}
			if d := Distance(m.Atoms[i].Pos, m.Atoms[j].Pos); d < nearest {
				nearest = d
			}
		}
		if math.Abs(nearest-bond) > 1e-8 {
			t.Fatalf("atom %d nearest neighbor %.6f bohr, want %.6f", i, nearest, bond)
		}
	}
}

func TestGrapheneFlakeDeterministic(t *testing.T) {
	a, b := GrapheneFlake(50), GrapheneFlake(50)
	for i := range a.Atoms {
		if a.Atoms[i].Pos != b.Atoms[i].Pos {
			t.Fatal("flake generation not deterministic")
		}
	}
}

func TestGrapheneFlakeNoDuplicates(t *testing.T) {
	m := GrapheneFlake(100)
	for i := range m.Atoms {
		for j := 0; j < i; j++ {
			if Distance(m.Atoms[i].Pos, m.Atoms[j].Pos) < 1e-6 {
				t.Fatalf("duplicate atoms %d and %d", i, j)
			}
		}
	}
}

func TestGrapheneBilayerStructure(t *testing.T) {
	m := GrapheneBilayer(22)
	if m.NumAtoms() != 44 {
		t.Fatalf("bilayer atoms = %d", m.NumAtoms())
	}
	// Two distinct z planes separated by the interlayer spacing.
	z0, z1 := m.Atoms[0].Pos[2], m.Atoms[22].Pos[2]
	want := InterlayerSpacing * BohrPerAngstrom
	if math.Abs(z1-z0-want) > 1e-9 {
		t.Fatalf("interlayer spacing = %v want %v", z1-z0, want)
	}
	for i := 0; i < 22; i++ {
		if m.Atoms[i].Pos[2] != z0 || m.Atoms[22+i].Pos[2] != z1 {
			t.Fatal("atoms not arranged in two planes")
		}
	}
}

func TestPaperSystemsTable4AtomCounts(t *testing.T) {
	// EXP-T4: the generator must reproduce Table 4 exactly.
	for _, spec := range PaperSystems {
		m, err := PaperSystem(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		if m.NumAtoms() != spec.Atoms {
			t.Fatalf("%s: atoms = %d want %d", spec.Name, m.NumAtoms(), spec.Atoms)
		}
		for _, a := range m.Atoms {
			if a.Symbol != "C" {
				t.Fatalf("%s: non-carbon atom %q", spec.Name, a.Symbol)
			}
		}
		// Shell and BF counts with 6-31G(d): 4 shells, 15 BFs per carbon.
		if got := 4 * m.NumAtoms(); got != spec.Shells {
			t.Fatalf("%s: shells = %d want %d", spec.Name, got, spec.Shells)
		}
		if got := 15 * m.NumAtoms(); got != spec.BasisF {
			t.Fatalf("%s: BFs = %d want %d", spec.Name, got, spec.BasisF)
		}
	}
}

func TestPaperSystemUnknown(t *testing.T) {
	if _, err := PaperSystem("3.0nm"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("expected unknown-system error, got %v", err)
	}
}

func TestCentroidSymmetry(t *testing.T) {
	c := H2().Centroid()
	want := 0.37 * BohrPerAngstrom
	if math.Abs(c[2]-want) > 1e-12 || c[0] != 0 || c[1] != 0 {
		t.Fatalf("H2 centroid = %v", c)
	}
}

func TestGrapheneFlakeCompact(t *testing.T) {
	// The flake should be compact: max radius for n atoms should be within
	// a small factor of the ideal disc radius (area per atom is
	// 3*sqrt(3)/4 * a^2 for honeycomb).
	n := 200
	m := GrapheneFlake(n)
	c := m.Centroid()
	maxR := 0.0
	for _, a := range m.Atoms {
		if d := Distance(a.Pos, c); d > maxR {
			maxR = d
		}
	}
	areaPerAtom := 3 * math.Sqrt(3) / 4 * CCBond * CCBond * BohrPerAngstrom * BohrPerAngstrom
	ideal := math.Sqrt(float64(n) * areaPerAtom / math.Pi)
	if maxR > 1.6*ideal {
		t.Fatalf("flake not compact: maxR=%v ideal=%v", maxR, ideal)
	}
}

func TestGrapheneNanoribbonSaturated(t *testing.T) {
	m := GrapheneNanoribbon(4.5, 5.5)
	nC, nH := 0, 0
	for _, a := range m.Atoms {
		switch a.Symbol {
		case "C":
			nC++
		case "H":
			nH++
		default:
			t.Fatalf("unexpected element %s", a.Symbol)
		}
	}
	if nC == 0 || nH == 0 {
		t.Fatalf("nC=%d nH=%d", nC, nH)
	}
	// Every carbon must have exactly three bonded neighbors (C at 1.42 or
	// H at 1.09): the fragment is chemically saturated.
	ccBond := CCBond * BohrPerAngstrom
	chBond := CHBond * BohrPerAngstrom
	for i, a := range m.Atoms {
		if a.Symbol != "C" {
			continue
		}
		neighbors := 0
		for j, b := range m.Atoms {
			if i == j {
				continue
			}
			d := Distance(a.Pos, b.Pos)
			if (b.Symbol == "C" && math.Abs(d-ccBond) < 0.05) ||
				(b.Symbol == "H" && math.Abs(d-chBond) < 0.05) {
				neighbors++
			}
		}
		if neighbors != 3 {
			t.Fatalf("carbon %d has %d neighbors", i, neighbors)
		}
	}
	// Saturated hydrocarbons from even-ring graphene cuts are closed
	// shell.
	if m.NumElectrons()%2 != 0 {
		t.Fatalf("odd electron count %d", m.NumElectrons())
	}
}

func TestGrapheneNanoribbonBenzeneLimit(t *testing.T) {
	// A cut just covering one hexagon must give benzene (C6H6).
	m := GrapheneNanoribbon(3.0, 2.6)
	nC, nH := 0, 0
	for _, a := range m.Atoms {
		if a.Symbol == "C" {
			nC++
		} else {
			nH++
		}
	}
	if nC != 6 || nH != 6 {
		t.Fatalf("smallest ribbon = C%dH%d, want C6H6", nC, nH)
	}
}

func TestGrapheneNanoribbonPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GrapheneNanoribbon(-1, 5)
}

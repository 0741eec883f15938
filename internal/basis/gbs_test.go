package basis

import (
	"math"
	"strings"
	"testing"

	"repro/internal/molecule"
)

const sto3gHC = `
! STO-3G excerpt (EMSL Gaussian94 format)
****
H     0
S   3   1.00
      3.42525091             0.15432897
      0.62391373             0.53532814
      0.16885540             0.44463454
****
C     0
S   6   1.00
     71.61683735             0.15432897
     13.04509632             0.53532814
      3.53051216             0.44463454
      2.94124940            -0.09996723
      0.68348310             0.39951283
      0.22228990             0.70011547
****
`

const sto3gWithSP = `
****
C     0
S   3   1.00
     71.61683735             0.15432897
     13.04509632             0.53532814
      3.53051216             0.44463454
SP   3   1.00
      2.94124940            -0.09996723             0.15591627
      0.68348310             0.39951283             0.60768372
      0.22228990             0.70011547             0.39195739
****
`

func TestParseGBSBasic(t *testing.T) {
	lib, err := ParseGBS(sto3gHC)
	if err != nil {
		t.Fatal(err)
	}
	if len(lib["H"]) != 1 || len(lib["C"]) != 1 {
		t.Fatalf("element shell counts: H=%d C=%d", len(lib["H"]), len(lib["C"]))
	}
	h := lib["H"][0]
	if len(h.exps) != 3 || h.moments[0] != S {
		t.Fatalf("H shell: %+v", h)
	}
	if h.exps[0] != 3.42525091 || h.coefs[0][2] != 0.44463454 {
		t.Fatalf("H values wrong: %+v", h)
	}
}

func TestParseGBSSPShell(t *testing.T) {
	lib, err := ParseGBS(sto3gWithSP)
	if err != nil {
		t.Fatal(err)
	}
	sp := lib["C"][1]
	if len(sp.moments) != 2 || sp.moments[0] != S || sp.moments[1] != P {
		t.Fatalf("SP moments: %v", sp.moments)
	}
	if len(sp.coefs) != 2 || sp.coefs[1][0] != 0.15591627 {
		t.Fatalf("SP coefficients: %+v", sp.coefs)
	}
}

func TestParseGBSErrors(t *testing.T) {
	cases := []string{
		"****\nH 0\nQ 3 1.0\n 1.0 1.0\n****\n",     // unsupported shell type
		"****\nH 0\nS x 1.0\n****\n",               // bad primitive count
		"****\nH 0\nS 2 1.0\n 1.0 1.0\n****\n",     // truncated primitives
		"****\nH 0\nS 1 1.0\n abc 1.0\n****\n",     // bad exponent
		"****\nH 0\nS 1 1.0\n 1.0 1.0 1.0\n****\n", // too many columns
		"****\nH 0\nS 1 1.0\n 1.0 xyz\n****\n",     // bad coefficient
		"****\nH 0\nS 1 1.0",                       // EOF inside shell
	}
	for i, c := range cases {
		if _, err := ParseGBS(c); err == nil {
			t.Fatalf("case %d: expected parse error", i)
		}
	}
}

// TestParseGBSRejectsNonPhysicalPrimitives: an exponent that is not a
// positive finite number, or a coefficient that is not finite, is an error
// naming the element and the shell; accepted, it made every integral over
// the shell NaN with no error anywhere.
func TestParseGBSRejectsNonPhysicalPrimitives(t *testing.T) {
	for _, c := range []struct{ exp, coef, want string }{
		{"-0.5", "1.0", "exponent"},
		{"0", "1.0", "exponent"},
		{"0.0E+00", "1.0", "exponent"},
		{"NaN", "1.0", "exponent"},
		{"Inf", "1.0", "exponent"},
		{"-Inf", "1.0", "exponent"},
		{"1e400", "1.0", "exponent"},
		{"1.0", "NaN", "coefficient"},
		{"1.0", "Inf", "coefficient"},
		{"1.0", "-Inf", "coefficient"},
	} {
		text := "****\nH 0\nS 1 1.00\n 3.0 1.0\nP 1 1.00\n " + c.exp + " " + c.coef + "\n****\n"
		_, err := ParseGBS(text)
		if err == nil {
			t.Fatalf("exponent %s, coefficient %s: accepted", c.exp, c.coef)
		}
		for _, part := range []string{"element H", "shell 2 (P)", c.want} {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("exponent %s, coefficient %s: error %q does not name %q", c.exp, c.coef, err, part)
			}
		}
		if RegisterGBS("bad-primitive", text) == nil {
			t.Fatalf("RegisterGBS accepted exponent %s, coefficient %s", c.exp, c.coef)
		}
	}
	// Tiny and negative coefficients are legitimate (contractions mix signs).
	if _, err := ParseGBS("****\nH 0\nS 2 1.00\n 3.0 -0.2\n 1e-300 1e-300\n****\n"); err != nil {
		t.Fatal(err)
	}
}

func TestParseGBSFortranExponents(t *testing.T) {
	lib, err := ParseGBS("****\nH 0\nS 1 1.00\n 0.3425D+01 1.0\n****\n")
	if err != nil {
		t.Fatal(err)
	}
	if lib["H"][0].exps[0] != 3.425 {
		t.Fatalf("D-exponent parsing: %v", lib["H"][0].exps[0])
	}
}

func TestRegisterGBSRoundTrip(t *testing.T) {
	// A registered copy of STO-3G carbon data must give the same energies
	// as the built-in table (same shells, same normalization path).
	if err := RegisterGBS("my-sto3g", sto3gWithSP); err != nil {
		t.Fatal(err)
	}
	m := &molecule.Molecule{Name: "C"}
	m.AddAtomAngstrom("C", 0, 0, 0)
	builtin, err := Build(m, "sto-3g")
	if err != nil {
		t.Fatal(err)
	}
	custom, err := Build(m, "my-sto3g")
	if err != nil {
		t.Fatal(err)
	}
	if custom.NumBF != builtin.NumBF || custom.NumShells() != builtin.NumShells() {
		t.Fatalf("custom %d/%d vs builtin %d/%d",
			custom.NumShells(), custom.NumBF, builtin.NumShells(), builtin.NumBF)
	}
	for si := range builtin.Shells {
		for mi := range builtin.Shells[si].Coefs {
			for p := range builtin.Shells[si].Coefs[mi] {
				a := builtin.Shells[si].Coefs[mi][p]
				b := custom.Shells[si].Coefs[mi][p]
				if math.Abs(a-b) > 1e-12 {
					t.Fatalf("normalized coefficients differ: %v vs %v", a, b)
				}
			}
		}
	}
}

func TestRegisterGBSGuards(t *testing.T) {
	if err := RegisterGBS("sto-3g", sto3gHC); err == nil {
		t.Fatal("must refuse to overwrite built-ins")
	}
	if err := RegisterGBS("empty", "\n! nothing\n"); err == nil {
		t.Fatal("must refuse empty basis")
	}
	if err := RegisterGBS("bad", "****\nH 0\nQ 1 1.0\n 1 1\n****"); err == nil {
		t.Fatal("must propagate parse errors")
	}
}

// FuzzParseGBS: every primitive ParseGBS accepts has a positive finite
// exponent, finite coefficients, one coefficient column per angular
// momentum and as many coefficients as exponents.
func FuzzParseGBS(f *testing.F) {
	f.Add(sto3gHC)
	f.Add(sto3gWithSP)
	f.Add("****\nH 0\nS 1 1.0\n 1.0D+00 1.0\n****\n")
	f.Add("****\nH 0\nS 1 1.0\n NaN 1.0\n****\n")
	f.Fuzz(func(t *testing.T, text string) {
		lib, err := ParseGBS(text)
		if err != nil {
			return
		}
		for el, specs := range lib {
			for s, spec := range specs {
				if len(spec.exps) < 1 || len(spec.coefs) != len(spec.moments) {
					t.Fatalf("%s shell %d: %d exponents, %d coefficient columns for moments %v",
						el, s, len(spec.exps), len(spec.coefs), spec.moments)
				}
				for _, e := range spec.exps {
					if !(e > 0) || math.IsInf(e, 0) {
						t.Fatalf("%s shell %d: accepted exponent %v", el, s, e)
					}
				}
				for _, col := range spec.coefs {
					if len(col) != len(spec.exps) {
						t.Fatalf("%s shell %d: %d coefficients for %d exponents", el, s, len(col), len(spec.exps))
					}
					for _, c := range col {
						if math.IsNaN(c) || math.IsInf(c, 0) {
							t.Fatalf("%s shell %d: accepted coefficient %v", el, s, c)
						}
					}
				}
			}
		}
	})
}

package repro

// End-to-end integration tests: the library-level flows a downstream user
// would run, chained together (geometry -> SCF -> properties -> MP2 ->
// simulation), exercising the facade exactly as the examples do.

import (
	"math"
	"strings"
	"testing"
)

func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline")
	}
	// 1. Geometry in, basis described.
	mol, err := ParseXYZ("3\nwater\nO 0.0 0.0 0.117347\nH 0.0 0.757216 -0.469388\nH 0.0 -0.757216 -0.469388\n")
	if err != nil {
		t.Fatal(err)
	}
	info, err := DescribeBasis(mol, "6-31g")
	if err != nil {
		t.Fatal(err)
	}
	if info.NumBF != 13 {
		t.Fatalf("water/6-31G has %d BFs, want 13", info.NumBF)
	}

	// 2. Serial SCF, then the paper's three parallel algorithms.
	serial, err := Run(bg, mol, "6-31g", Serial)
	if err != nil || !serial.Converged {
		t.Fatalf("serial SCF: %v", err)
	}
	for _, p := range []Plan{MPIOnly, PrivateFock, SharedFock} {
		par, err := Run(bg, mol, "6-31g", with(p, 2, 2, SCFOptions{}))
		if err != nil {
			t.Fatalf("%s: %v", p.Algorithm, err)
		}
		if math.Abs(par.Energy-serial.Energy) > 1e-9 {
			t.Fatalf("%s energy mismatch", p.Algorithm)
		}
	}

	// 3. Properties and correlation on the converged density.
	props, err := AnalyzeRHF(mol, "6-31g", serial)
	if err != nil {
		t.Fatal(err)
	}
	if props.DipoleDebye < 1.5 || props.DipoleDebye > 3.5 {
		t.Fatalf("water dipole = %v debye", props.DipoleDebye)
	}
	mp2, err := RunMP2(mol, "6-31g", serial)
	if err != nil || mp2.CorrelationEnergy >= 0 {
		t.Fatalf("MP2: %v %v", mp2, err)
	}

	// 4. The paper-scale simulation path on the same code base.
	sess := NewSimSession()
	small, err := sess.Simulate("0.5nm", MachineTheta, SharedFock.Algorithm, 4, 4, 64)
	if err != nil || !small.Feasible {
		t.Fatalf("simulation: %+v %v", small, err)
	}
	big, err := sess.Simulate("0.5nm", MachineTheta, SharedFock.Algorithm, 16, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if big.Seconds >= small.Seconds {
		t.Fatal("more nodes should be faster")
	}
}

func TestEndToEndOpenShell(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end open shell")
	}
	oh, err := ParseXYZ("2\nhydroxyl radical\nO 0 0 0\nH 0 0 0.97\n")
	if err != nil {
		t.Fatal(err)
	}
	doublet := with(Serial, 0, 0, SCFOptions{MaxIter: 40})
	doublet.Multiplicity = 2
	res, err := Run(bg, oh, "sto-3g", doublet)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("OH radical did not converge")
	}
	// Literature UHF/STO-3G OH is about -74.36 hartree; doublet <S^2> ~ 0.75.
	if res.Energy < -74.8 || res.Energy > -73.9 {
		t.Fatalf("OH energy = %v", res.Energy)
	}
	if math.Abs(res.Spin.SSquared-0.75) > 0.05 {
		t.Fatalf("<S^2> = %v", res.Spin.SSquared)
	}
}

func TestXYZRoundTripThroughFacade(t *testing.T) {
	mol, _ := BuiltinMolecule("methane")
	text := mol.XYZ()
	if !strings.HasPrefix(text, "5\n") {
		t.Fatalf("XYZ header: %q", text[:10])
	}
	back, err := ParseXYZ(text)
	if err != nil || back.NumAtoms() != 5 {
		t.Fatalf("round trip failed: %v", err)
	}
}

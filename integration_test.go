package repro

// End-to-end integration tests: the library-level flows a downstream user
// would run, chained together (geometry -> SCF -> properties -> MP2 ->
// simulation), exercising the facade exactly as the examples do.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/molecule"
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

// TestScaledMethaneConverges: the two scaled methanes the served workload
// found failing with "overlap eigenvalue ... below linear-dependence
// tolerance" (tqli dropped the closing update of a completed QL sweep
// ending on r == 0) run to a converged RHF.
func TestScaledMethaneConverges(t *testing.T) {
	mol, _ := BuiltinMolecule("methane")
	for _, factor := range []float64{0.915069434, 0.985749597} {
		var b strings.Builder
		fmt.Fprintf(&b, "%d\n%s x %.9f\n", mol.NumAtoms(), mol.Name, factor)
		for _, a := range mol.Atoms {
			fmt.Fprintf(&b, "%-2s %.9f %.9f %.9f\n", a.Symbol,
				factor*a.Pos[0]/molecule.BohrPerAngstrom,
				factor*a.Pos[1]/molecule.BohrPerAngstrom,
				factor*a.Pos[2]/molecule.BohrPerAngstrom)
		}
		scaled, err := ParseXYZ(b.String())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(bg, scaled, "sto-3g", Serial)
		if err != nil {
			t.Fatalf("methane x %.9f: %v", factor, err)
		}
		if !res.Converged || math.IsNaN(res.Energy) || res.Energy > -39 {
			t.Fatalf("methane x %.9f: converged=%v E=%v", factor, res.Converged, res.Energy)
		}
	}
}

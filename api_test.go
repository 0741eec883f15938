package repro

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func TestBuiltinMolecules(t *testing.T) {
	for _, name := range []string{"h2", "heh+", "water", "methane", "ammonia", "benzene"} {
		m, err := BuiltinMolecule(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.NumAtoms() == 0 {
			t.Fatalf("%s has no atoms", name)
		}
	}
	if _, err := BuiltinMolecule("unobtainium"); err == nil {
		t.Fatal("expected error for unknown molecule")
	}
}

// bg is the never-canceled context of tests that do not test cancellation.
var bg = context.Background()

// with returns preset p shaped for a test run.
func with(p Plan, ranks, threads int, opt SCFOptions) Plan {
	p.Ranks, p.Threads, p.SCF = ranks, threads, opt
	return p
}

func TestRunRHFWater(t *testing.T) {
	mol, _ := BuiltinMolecule("water")
	res, err := Run(bg, mol, "sto-3g", Serial)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if res.Energy < -75.15 || res.Energy > -74.75 {
		t.Fatalf("energy = %v", res.Energy)
	}
}

// TestPlanTable: every name of the one name→Plan table resolves, runs
// water to the serial energy, and reports how it got there.
func TestPlanTable(t *testing.T) {
	mol, _ := BuiltinMolecule("water")
	serial, err := Run(bg, mol, "sto-3g", Serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range PlanNames() {
		p, err := PlanByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := Run(bg, mol, "sto-3g", p) // default shape: 2 ranks x 1 thread
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Converged || math.Abs(res.Energy-serial.Energy) > 1e-8 {
			t.Errorf("%s: energy %v (converged=%v) vs serial %v", name, res.Energy, res.Converged, serial.Energy)
		}
		if want := map[bool]int{true: 0, false: 1}[name == "serial"]; res.Recovery == nil || res.Recovery.Attempts != want {
			t.Errorf("%s: recovery report %+v, want %d quiet attempt(s)", name, res.Recovery, want)
		}
	}
	if p, err := PlanByName(""); err != nil || p.Algorithm != Serial.Algorithm {
		t.Errorf("the empty name is the zero plan, got %+v, %v", p, err)
	}
	_, err = PlanByName("quantum")
	if err == nil || !strings.Contains(err.Error(), "purified-abft") {
		t.Errorf("unknown-plan error %v should list the table", err)
	}
}

// TestRunRejectsOutOfScopePlans: axis combinations that are out of scope
// fail with the typed error, before any work.
func TestRunRejectsOutOfScopePlans(t *testing.T) {
	mol, _ := BuiltinMolecule("water")
	uhfSP2 := Purified
	uhfSP2.Multiplicity = 1
	serialRestart := Serial
	serialRestart.Recovery = Resilient.Recovery
	for name, p := range map[string]Plan{"uhf x sp2": uhfSP2, "serial x checkpoint-shrink": serialRestart} {
		if _, err := Run(bg, mol, "sto-3g", p); !errors.Is(err, ErrUnsupported) {
			t.Errorf("%s: err = %v, want ErrUnsupported", name, err)
		}
	}
}

func TestDescribeBasisTable4(t *testing.T) {
	mol, err := PaperSystem("0.5nm")
	if err != nil {
		t.Fatal(err)
	}
	info, err := DescribeBasis(mol, "6-31g(d)")
	if err != nil {
		t.Fatal(err)
	}
	if info.NumShells != 176 || info.NumBF != 660 || info.MaxL != 2 {
		t.Fatalf("Table 4 mismatch: %+v", info)
	}
}

func TestParseXYZFacade(t *testing.T) {
	m, err := ParseXYZ("1\nhydrogen atom\nH 0 0 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if m.NumAtoms() != 1 {
		t.Fatal("parse failed")
	}
}

func TestRunRHFBadBasis(t *testing.T) {
	mol, _ := BuiltinMolecule("h2")
	if _, err := Run(bg, mol, "nope", Serial); err == nil {
		t.Fatal("expected unknown-basis error")
	}
}

func TestGrapheneFlakeFacade(t *testing.T) {
	if GrapheneFlake(10).NumAtoms() != 10 {
		t.Fatal("flake size wrong")
	}
}

func TestFacadeUHFAndProperties(t *testing.T) {
	water, _ := BuiltinMolecule("water")
	res, err := Run(bg, water, "sto-3g", Serial)
	if err != nil {
		t.Fatal(err)
	}
	props, err := AnalyzeRHF(water, "sto-3g", res)
	if err != nil {
		t.Fatal(err)
	}
	if len(props.MullikenCharges) != 3 || props.DipoleDebye <= 0 {
		t.Fatalf("properties wrong: %+v", props)
	}
	singlet := Serial
	singlet.Multiplicity = 1
	uhf, err := Run(bg, water, "sto-3g", singlet)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(uhf.Energy-res.Energy) > 1e-7 || uhf.Spin == nil {
		t.Fatalf("UHF singlet %v (spin %+v) vs RHF %v", uhf.Energy, uhf.Spin, res.Energy)
	}
	if _, err := RunMP2(water, "sto-3g", uhf); err == nil {
		t.Fatal("MP2 on an unrestricted result (no restricted orbitals) should be rejected")
	}
}

func TestFacadeMP2(t *testing.T) {
	water, _ := BuiltinMolecule("water")
	res, err := Run(bg, water, "sto-3g", Serial)
	if err != nil {
		t.Fatal(err)
	}
	mp2, err := RunMP2(water, "sto-3g", res)
	if err != nil {
		t.Fatal(err)
	}
	if mp2.CorrelationEnergy >= 0 || mp2.TotalEnergy >= res.Energy {
		t.Fatalf("MP2 = %+v", mp2)
	}
}

func TestFacadeRegisterBasis(t *testing.T) {
	gbs := "****\nH 0\nS 3 1.00\n 3.42525091 0.15432897\n 0.62391373 0.53532814\n 0.16885540 0.44463454\n****\n"
	if err := RegisterBasis("h-only", gbs); err != nil {
		t.Fatal(err)
	}
	mol, _ := BuiltinMolecule("h2")
	res, err := Run(bg, mol, "h-only", Serial)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := Run(bg, mol, "sto-3g", Serial)
	if math.Abs(res.Energy-ref.Energy) > 1e-10 {
		t.Fatalf("custom basis energy %v vs builtin %v", res.Energy, ref.Energy)
	}
	// A primitive that would make the integrals NaN is refused up front,
	// naming where it is.
	for _, prim := range []string{" -0.5 0.44463454", " 0 0.44463454", " NaN 0.44463454", " Inf 0.44463454", " 0.16885540 NaN"} {
		bad := strings.Replace(gbs, " 0.16885540 0.44463454", prim, 1)
		err := RegisterBasis("h-bad", bad)
		if err == nil || !strings.Contains(err.Error(), "element H, shell 1 (S)") {
			t.Fatalf("primitive %q: RegisterBasis returned %v, want an error naming element H, shell 1", prim, err)
		}
	}
	if _, err := Run(bg, mol, "h-bad", Serial); err == nil {
		t.Fatal("a refused basis was installed")
	}
}

func TestFacadeParallelUHF(t *testing.T) {
	o2, err := ParseXYZ("2\nO2\nO 0 0 0\nO 0 0 1.2075\n")
	if err != nil {
		t.Fatal(err)
	}
	triplet := with(Serial, 0, 0, SCFOptions{MaxIter: 200})
	triplet.Multiplicity = 3
	serial, err := Run(bg, o2, "sto-3g", triplet)
	if err != nil {
		t.Fatal(err)
	}
	triplet.Algorithm, triplet.Ranks, triplet.Threads = SharedFock.Algorithm, 2, 2
	par, err := Run(bg, o2, "sto-3g", triplet)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(par.Energy-serial.Energy) > 1e-8 {
		t.Fatalf("parallel UHF %v vs serial %v", par.Energy, serial.Energy)
	}
}

func TestFacadeOptimize(t *testing.T) {
	m, _ := ParseXYZ("2\nstretched H2\nH 0 0 0\nH 0 0 0.9\n")
	res, err := OptimizeGeometry(m, "sto-3g", SCFOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("optimization did not converge")
	}
	if math.Abs(res.Energy-(-1.1175)) > 2e-3 {
		t.Fatalf("optimized H2 energy = %v", res.Energy)
	}
}

func TestBuiltinMoleculeErrorListsNames(t *testing.T) {
	_, err := BuiltinMolecule("unobtainium")
	if err == nil {
		t.Fatal("expected unknown-molecule error")
	}
	for _, name := range BuiltinMoleculeNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not advertise %q", err, name)
		}
	}
	if !strings.Contains(err.Error(), "unobtainium") {
		t.Fatalf("error %q does not echo the bad name", err)
	}
}

func TestBuiltinMoleculeAliases(t *testing.T) {
	for alias, canonical := range map[string]string{
		"h2o": "water", "ch4": "methane", "nh3": "ammonia", "c6h6": "benzene",
	} {
		a, err := BuiltinMolecule(alias)
		if err != nil {
			t.Fatalf("%s: %v", alias, err)
		}
		c, _ := BuiltinMolecule(canonical)
		if a.NumAtoms() != c.NumAtoms() {
			t.Fatalf("%s != %s", alias, canonical)
		}
	}
}

func TestPaperSystemErrorListsNames(t *testing.T) {
	_, err := PaperSystem("9.9nm")
	if err == nil {
		t.Fatal("expected unknown-system error")
	}
	names := PaperSystemNames()
	if len(names) == 0 {
		t.Fatal("no paper systems advertised")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not advertise %q", err, name)
		}
	}
}

func TestRunRHFInvalidGuess(t *testing.T) {
	mol, _ := BuiltinMolecule("h2")
	_, err := Run(bg, mol, "sto-3g", with(Serial, 0, 0, SCFOptions{Guess: "psychic"}))
	if err == nil {
		t.Fatal("expected unknown-guess error")
	}
	if !strings.Contains(err.Error(), "psychic") || !strings.Contains(err.Error(), "gwh") {
		t.Fatalf("guess error %q should echo the bad name and list the valid ones", err)
	}
}

func TestRunCanceledSerial(t *testing.T) {
	mol, _ := BuiltinMolecule("water")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, mol, "sto-3g", Serial)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel cause not exposed: %v", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancel misreported as deadline: %v", err)
	}
	if res == nil {
		t.Fatal("partial result should accompany ErrCanceled")
	}
	if res.Converged {
		t.Fatal("canceled run cannot be converged")
	}
}

func TestRunDeadlineSerial(t *testing.T) {
	mol, _ := BuiltinMolecule("water")
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := Run(ctx, mol, "sto-3g", Serial)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrCanceled + DeadlineExceeded, got %v", err)
	}
}

func TestRunCanceledParallel(t *testing.T) {
	mol, _ := BuiltinMolecule("water")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, mol, "sto-3g", with(SharedFock, 2, 2, SCFOptions{}))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

func TestRunCanceledResilient(t *testing.T) {
	mol, _ := BuiltinMolecule("water")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, mol, "sto-3g", Resilient)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

func TestRunBackgroundUnaffected(t *testing.T) {
	// A background context must not perturb a normal run (the poll is
	// disabled entirely, not just never firing).
	mol, _ := BuiltinMolecule("h2")
	res, err := Run(bg, mol, "sto-3g", Serial)
	if err != nil || !res.Converged {
		t.Fatalf("background-ctx run failed: %v", err)
	}
}

func TestFacadeSimSession(t *testing.T) {
	sess := NewSimSession()
	pt, err := sess.Simulate("0.5nm", MachineTheta, SharedFock.Algorithm, 4, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Feasible || pt.Seconds <= 0 {
		t.Fatalf("sim point: %+v", pt)
	}
	// MPI-only threads forced to 1 and memory-capped where applicable.
	mp, err := sess.Simulate("1.0nm", MachineJLSE, MPIOnly.Algorithm, 1, 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Threads != 1 || mp.RanksPerNode != 128 {
		t.Fatalf("MPI-only config not normalized: %+v", mp)
	}
	// Modes sweep entry point.
	md, err := sess.SimulateModes("0.5nm", PrivateFock.Algorithm, "quadrant", "cache")
	if err != nil || !md.Feasible {
		t.Fatalf("modes: %+v %v", md, err)
	}
	if _, err := sess.Simulate("9.9nm", MachineTheta, SharedFock.Algorithm, 4, 4, 64); err == nil {
		t.Fatal("unknown system should error")
	}
}

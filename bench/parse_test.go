package main

import (
	"strings"
	"testing"
)

const sampleHFRun = `molecule: water dimer (angstrom) (6 atoms, 20 electrons)
basis:    6-31g(d) (16 shells, 38 basis functions)
mode:     private-fock, 2 ranks x 1 threads
status:            CONVERGED in 15 iterations
total energy:       -152.0298289720 hartree
electronic energy:  -188.8137719022 hartree
nuclear repulsion:    36.7839429302 hartree
ERI quartets:      65967 computed, 8797 screened
wall time:         2.762s
`

func TestParseHFRun(t *testing.T) {
	r, err := parseHFRun(sampleHFRun)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged || r.Iterations != 15 || r.Energy != -152.0298289720 {
		t.Errorf("parsed %+v", r)
	}
	bad := strings.Replace(sampleHFRun, "CONVERGED in 15", "NOT CONVERGED in 100", 1)
	if r, err := parseHFRun(bad); err != nil || r.Converged || r.Iterations != 100 {
		t.Errorf("NOT CONVERGED parsed as %+v, %v", r, err)
	}
	if _, err := parseHFRun("hfrun: unknown basis\n"); err == nil {
		t.Error("output without a status line parsed")
	}
	if _, err := parseHFRun("status:            CONVERGED in 3 iterations\n"); err == nil {
		t.Error("output without an energy line parsed")
	}
}

func TestCheckSCF(t *testing.T) {
	if err := checkSCF(sampleHFRun, -152.0298289720, 1e-8); err != nil {
		t.Errorf("right reference rejected: %v", err)
	}
	if err := checkSCF(sampleHFRun, -152.0298289720+5e-9, 1e-8); err != nil {
		t.Errorf("reference within tolerance rejected: %v", err)
	}
	if err := checkSCF(sampleHFRun, -152.0298, 1e-8); err == nil {
		t.Error("wrong reference accepted")
	}
	bad := strings.Replace(sampleHFRun, "CONVERGED in 15", "NOT CONVERGED in 100", 1)
	if err := checkSCF(bad, -152.0298289720, 1e-8); err == nil {
		t.Error("unconverged run accepted")
	}
}

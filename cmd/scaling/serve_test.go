package main

import (
	"bytes"
	"testing"
)

func TestLoadgenSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("loadgen is a multi-second soak; run without -short")
	}
	rep, err := runLoadgen(serveLoad{jobs: 50, clients: 8, workers: 2, queueCap: 3, seed: 7})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	var verdicts bytes.Buffer
	g := &gates{out: &verdicts}
	rep.gate(g)
	if g.exitStatus() != 0 {
		t.Fatalf("gates:\n%s%s", verdicts.String(), rep.table().text())
	}
	t.Logf("\n%s", rep.table().text())
}

package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/simulate"
)

// TestModelCSVGolden regenerates the paper artifacts whose simulations
// together take about a second, through the same experiment rows as
// `scaling -exp <id> -csv`, and compares every CSV byte for byte with the
// file committed under testdata/. (fig7, resilience and sdc share the
// ~10 s 5.0 nm sweep and are compared with cmp by hand.) After a
// deliberate change to the model, regenerate the files with
//
//	go run ./cmd/scaling -exp <id> -csv cmd/scaling/testdata
func TestModelCSVGolden(t *testing.T) {
	golden := map[string]bool{"table2": true, "table3": true, "fig3": true, "fig4": true, "fig5": true}
	if testing.Short() {
		golden = map[string]bool{"table2": true} // closed-form; the rest simulate
	}
	dir := t.TempDir()
	e := &env{gates: &gates{out: io.Discard}, pc: simulate.NewProfileCache(), csvDir: dir}
	for _, ex := range experiments() {
		if !golden[ex.id] {
			continue
		}
		e.id = ex.id
		ex.run(e)
		got, err := os.ReadFile(filepath.Join(dir, ex.id+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", ex.id+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s.csv differs from testdata:\ngot:\n%s\nwant:\n%s", ex.id, got, want)
		}
	}
}

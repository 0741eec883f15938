package repro_test

// External test package: internal/jobs imports the facade, so a test that
// looks at jobs.WALOptions cannot live in package repro.

import (
	"reflect"
	"testing"

	"repro/internal/fock"
	"repro/internal/jobs"
	"repro/internal/mpi"
	"repro/internal/scf"
	"repro/internal/service"
	"repro/internal/simulate"
)

// TestOptionBudget pins the number of exported fields — independently
// settable values — of every configuration struct, so that a knob does
// not grow back unnoticed.
func TestOptionBudget(t *testing.T) {
	const rule = "an option stays only if two callers that exist today and are reachable from a cmd/ main, " +
		"the root facade, bench/ or the jobs.Spec wire format give it different values, or it is a deployment " +
		"setting (address, path, pool/queue/cache size, deadline, quota); tests and examples are not callers. " +
		"With one value in use, make it a constant; if the code can work it out, derive it " +
		"(DESIGN.md §6, \"Options, and what keeps each one\")"
	for _, tc := range []struct {
		cfg  any
		want int
	}{
		{fock.Config{}, 2},
		{scf.Plan{}, 15},
		{scf.Options{}, 7},
		{mpi.RunOptions{}, 5},
		{service.Config{}, 11},
		{service.AutoscalerConfig{}, 2},
		{jobs.WALOptions{}, 3},
		{simulate.Config{}, 4},
	} {
		typ := reflect.TypeOf(tc.cfg)
		var exported []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				exported = append(exported, f.Name)
			}
		}
		if len(exported) != tc.want {
			t.Errorf("%s exports %d fields %v, budget %d", typ, len(exported), exported, tc.want)
		}
	}
	if t.Failed() {
		t.Log("the rule: " + rule)
	}
}

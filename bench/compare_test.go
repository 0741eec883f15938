package main

import (
	"bytes"
	"strings"
	"testing"
)

// mkSet builds a one-workload result set from per-run values.
func mkSet(wall []float64, quartets []float64) *setResult {
	runs := make([]*runResult, len(wall))
	for i := range wall {
		r := newRunResult(wlDimer)
		r.Seed, r.Attempted = int64(i+1), 5
		r.set("time_to_solution_s", wall[i], 5)
		r.set("fock.quartets_computed", quartets[i], 1)
		runs[i] = r
	}
	return &setResult{Schema: setSchema, Runs: len(wall), Workloads: []setWorkload{summarise(wlDimer, runs)}}
}

func TestCompareSets(t *testing.T) {
	steady := []float64{2.00, 2.01, 1.99, 2.02, 2.00, 1.98}
	counts := []float64{8340, 8340, 8340, 8340, 8340, 8340}
	decl, _ := findMetric("time_to_solution_s")
	bound := decl.Bound
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		a, b *setResult
		code int
		want string
	}{
		{"same", mkSet(steady, counts), mkSet(scale(steady, 1+bound/3), counts), 0, "ok"},
		{"worse", mkSet(steady, counts), mkSet(scale(steady, 1+1.5*bound), counts), 1, "WORSE"},
		{"better", mkSet(steady, counts), mkSet(scale(steady, 1-1.5*bound), counts), 0, "better"},
		{"noisy", mkSet([]float64{1.2, 2.8, 2.0, 1.3, 2.7, 2.0}, counts), mkSet(steady, counts), 1, "unresolved"},
		{"count", mkSet(steady, counts), mkSet(steady, []float64{8340, 8340, 8341, 8340, 8340, 8340}), 1, "EXACT COUNT DIFFERS"},
	} {
		var out bytes.Buffer
		if code := compareSets(&out, c.a, c.b); code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d (want %d), output lacks %q:\n%s", c.name, code, c.code, c.want, out.String())
		}
	}
	// A candidate that lost a workload (every run died), an end-to-end
	// metric or an exact count must not compare clean, whichever set lacks it.
	without := func(metric string) *setResult {
		s := mkSet(steady, counts)
		delete(s.Workloads[0].Metrics, metric)
		return s
	}
	empty := mkSet(steady, counts)
	empty.Workloads = nil
	for _, c := range []struct {
		name string
		a, b *setResult
		want string
	}{
		{"metric lost in B", mkSet(steady, counts), without("time_to_solution_s"), "MISSING from B"},
		{"count lost in B", mkSet(steady, counts), without("fock.quartets_computed"), "MISSING from B"},
		{"metric lost in A", without("time_to_solution_s"), mkSet(steady, counts), "MISSING from A"},
		{"workload lost in B", mkSet(steady, counts), empty, "MISSING from B"},
		{"workload lost in A", empty, mkSet(steady, counts), "MISSING from A"},
	} {
		var out bytes.Buffer
		if code := compareSets(&out, c.a, c.b); code != 1 || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d (want 1), output lacks %q:\n%s", c.name, code, c.want, out.String())
		}
	}
	failed := mkSet(steady, counts)
	failed.Workloads[0].Failed = 1
	var out bytes.Buffer
	if compareSets(&out, mkSet(steady, counts), failed) == 0 {
		t.Error("a set with a failed operation compared clean")
	}
}

func TestWorsening(t *testing.T) {
	if w := worsening(100, 110, "lower"); w < 0.0999 || w > 0.1001 {
		t.Errorf("lower-is-better 100 -> 110 worsens by %v", w)
	}
	if w := worsening(100, 90, "higher"); w < 0.0999 || w > 0.1001 {
		t.Errorf("higher-is-better 100 -> 90 worsens by %v", w)
	}
	if w := worsening(100, 120, "higher"); w > -0.19 {
		t.Errorf("higher-is-better 100 -> 120 worsens by %v", w)
	}
}

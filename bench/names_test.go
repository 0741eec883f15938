package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json; unknown keys are rejected.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json must declare exactly the workloads and metrics the code
// emits, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	f, err := os.Open("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}

	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, the code runs %d", len(b.Workloads), len(workloadNames))
	}
	seen := map[string]bool{}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the code has %q", i, w.Name, workloadNames[i])
		}
		if !nameRe.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("bad or repeated workload name %q", w.Name)
		}
		seen[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || regexp.MustCompile(`\n`).MatchString(w.Why) {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, the code emits %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end_to_end[%d] = %+v, the code has %+v", i, m, want)
		}
		if !nameRe.MatchString(m.Name) || !unitRe.MatchString(m.Unit) || seen[m.Name] || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %q breaks the contract", m.Name)
		}
		seen[m.Name] = true
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if !want.on(wlBenzene) || want.On != nil {
			t.Errorf("end-to-end metric %s must be defined on every workload", want.Name)
		}
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}

	contract := contractPerLayer()
	if len(b.PerLayer) != len(contract) || len(contract) > 128 {
		t.Fatalf("%d per-layer metrics declared, the code's contract list has %d (max 128)", len(b.PerLayer), len(contract))
	}
	for i, m := range b.PerLayer {
		want := contract[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per_layer[%d] = %+v, the code has %+v", i, m, want)
		}
		if !nameRe.MatchString(m.Name) || !unitRe.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per_layer %q breaks the contract", m.Name)
		}
		seen[m.Name] = true
	}
}

// Every declared metric, in or out of the contract list, has a legal
// name and unit, and a duration is in the contract list only when every
// workload measures it.
func TestMetricTable(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]Metric(nil), endToEnd...), perLayer...) {
		if !nameRe.MatchString(m.Name) || !unitRe.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("bad or repeated metric %q [%s]", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		for _, w := range m.On {
			if !knownWorkload(w) {
				t.Errorf("%s is measured on unknown workload %q", m.Name, w)
			}
		}
	}
	for _, m := range contractPerLayer() {
		if timeUnits[m.Unit] && m.On != nil {
			t.Errorf("%s is a duration not measured on every workload, yet in the contract list", m.Name)
		}
	}
}

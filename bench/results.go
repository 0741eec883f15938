package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// reference pins the outputs the correctness checks compare against
// (bench/testdata/reference.json).
type reference struct {
	ToleranceHa float64            `json:"tolerance_ha"`
	SCF         map[string]float64 `json:"scf"`
	ServeHot    map[string]float64 `json:"serve_hot"`
}

func loadReference(root string) (*reference, error) {
	path := filepath.Join(root, "bench", "testdata", "reference.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r reference
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.ToleranceHa <= 0 {
		return nil, fmt.Errorf("%s: tolerance_ha must be positive", path)
	}
	return &r, nil
}

// sample is one reported value and the number of timed samples behind it
// (1 for a count or a single measurement).
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// runResult is the outcome of one run of one workload.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]sample `json:"metrics"`
	TracePath string            `json:"trace_file,omitempty"`
	// StealShare is the share of the machine's CPU time the hypervisor
	// took away during the run; timings of a run with a large share say
	// more about the host than about the program.
	StealShare float64 `json:"cpu_steal_share"`
	Env        hygiene `json:"env"`
}

func newRunResult(workload string) *runResult {
	return &runResult{Workload: workload, Metrics: map[string]sample{}}
}

// set records a metric; the name must be one spec.go declares.
func (r *runResult) set(name string, v float64, n int) {
	m, ok := findMetric(name)
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	r.Metrics[name] = sample{Value: v, Unit: m.Unit, N: n}
}

// fail counts one failed operation and keeps the first few reasons.
func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *runResult) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// failedFrac is the share of attempted operations that errored, did not
// converge, failed the correctness check or were lost.
func (r *runResult) failedFrac() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// contractLine renders the one-line JSON object the driver reads: every
// end-to-end metric of an untraced run, every declared per-layer metric
// of a traced one (0 for a count or ratio of a layer this workload does
// not exercise).
func (r *runResult) contractLine() (string, error) {
	list := endToEnd
	if r.Trace {
		list = contractPerLayer()
	}
	type cv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]cv{}
	for _, m := range list {
		s, ok := r.Metrics[m.Name]
		if !ok && m.on(r.Workload) {
			return "", fmt.Errorf("bench: %s did not produce %s", r.Workload, m.Name)
		}
		metrics[m.Name] = cv{Value: s.Value, Unit: m.Unit}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   r.correct(),
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	})
	return string(out), err
}

// printTable prints every metric by name with its unit and sample count.
func (r *runResult) printTable() {
	kind := "end-to-end (tracing off)"
	if r.Trace {
		kind = "per-layer (traced run)"
	}
	fmt.Printf("workload %s  seed %d  %s\n", r.Workload, r.Seed, kind)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := r.Metrics[n]
		note := ""
		if m, _ := findMetric(n); m.Exact {
			note = "  exact"
		}
		fmt.Printf("  %-36s %16.6g %-6s n=%d%s\n", n, s.Value, s.Unit, s.N, note)
	}
	fmt.Printf("  %-36s %16.6g %-6s (%d of %d operations)\n", "failed_frac", r.failedFrac(), "ratio", r.Failed, r.Attempted)
	fmt.Printf("  %-36s %16.6g %-6s (host CPU time taken by the hypervisor during the run)\n", "cpu_steal_share", r.StealShare, "ratio")
	for _, f := range r.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	if r.TracePath != "" {
		fmt.Printf("  spans written to %s\n", r.TracePath)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

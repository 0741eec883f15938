package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// setSchema tags a results file written by -runs.
const setSchema = "hf-bench/v2"

// setMetric summarises one metric over the runs of a set.
type setMetric struct {
	Unit    string    `json:"unit"`
	Kind    string    `json:"kind"` // end_to_end | per_layer
	Better  string    `json:"better"`
	Bound   float64   `json:"bound,omitempty"`
	Exact   bool      `json:"exact,omitempty"`
	Samples []int     `json:"samples"` // timed samples behind each run's value
	Values  []float64 `json:"values"`  // one per run, in seed order
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Spread  float64   `json:"spread"` // (q3 - q1) / median
}

type setWorkload struct {
	Name      string               `json:"name"`
	Seeds     []int64              `json:"seeds"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Steal     []float64            `json:"cpu_steal_share"` // per run
	Metrics   map[string]setMetric `json:"metrics"`
}

// setResult is the results file of a set of runs.
type setResult struct {
	Schema    string        `json:"schema"`
	Env       hygiene       `json:"env"`
	Seed      int64         `json:"seed"`
	Runs      int           `json:"runs"`
	Seconds   float64       `json:"seconds"`
	Trace     bool          `json:"trace"`
	Workloads []setWorkload `json:"workloads"`
}

type setOptions struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	runs     int
	out      string
}

// runSet runs every selected workload opt.runs times, each run in a
// fresh process of this binary, and summarises. The workload order flips
// between repetitions (benzene, dimer, ... then ..., dimer, benzene) so
// machine drift does not land on one workload.
func runSet(opt setOptions) int {
	names := workloadNames
	if opt.workload != "all" {
		names = []string{opt.workload}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	parent := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(parent, "set-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	traceArg := "0"
	if opt.traced {
		traceArg = "1"
	}
	runsOf := map[string][]*runResult{}
	failed := false
	for rep := 0; rep < opt.runs; rep++ {
		order := append([]string(nil), names...)
		if rep%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			seed := opt.seed + int64(rep)
			file := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", w, rep))
			args := []string{"-workload", w, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(opt.seconds), "-trace", traceArg, "-out", file}
			fmt.Printf("--- run %d/%d  %s  seed %d\n", rep+1, opt.runs, w, seed)
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w, seed, err)
				failed = true
			}
			data, err := os.ReadFile(file)
			if err != nil {
				continue // the run died before it had a result; already reported
			}
			var r runResult
			if err := json.Unmarshal(data, &r); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", file, err)
				failed = true
				continue
			}
			runsOf[w] = append(runsOf[w], &r)
		}
	}

	set := setResult{Schema: setSchema, Seed: opt.seed, Runs: opt.runs, Seconds: opt.seconds, Trace: opt.traced}
	for _, w := range names {
		if len(runsOf[w]) == 0 {
			continue
		}
		set.Env = runsOf[w][0].Env
		set.Workloads = append(set.Workloads, summarise(w, runsOf[w]))
	}
	printSet(&set)
	if opt.out != "" {
		if err := writeJSON(opt.out, &set); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("results written to %s\n", opt.out)
	}
	if failed {
		return 1
	}
	return 0
}

// summarise folds the runs of one workload into per-metric medians and
// quartiles.
func summarise(name string, runs []*runResult) setWorkload {
	sw := setWorkload{Name: name, Metrics: map[string]setMetric{}}
	for _, r := range runs {
		sw.Seeds = append(sw.Seeds, r.Seed)
		sw.Attempted += r.Attempted
		sw.Failed += r.Failed
		sw.Steal = append(sw.Steal, r.StealShare)
		for n, s := range r.Metrics {
			m := sw.Metrics[n]
			m.Values = append(m.Values, s.Value)
			m.Samples = append(m.Samples, s.N)
			sw.Metrics[n] = m
		}
	}
	for n, m := range sw.Metrics {
		decl, _ := findMetric(n)
		m.Unit, m.Better, m.Exact = decl.Unit, decl.Better, decl.Exact
		m.Kind = "per_layer"
		if decl.Bound > 0 {
			m.Kind, m.Bound = "end_to_end", decl.Bound
		}
		m.Median = median(m.Values)
		m.Q1, m.Q3 = quartiles(m.Values)
		m.Spread = spread(m.Values)
		sw.Metrics[n] = m
	}
	return sw
}

func printSet(set *setResult) {
	fmt.Printf("\n=== %d run(s) per workload, %gs each, trace=%v, %d cpus, %s, commit %s\n",
		set.Runs, set.Seconds, set.Trace, set.Env.NProc, set.Env.GoVersion, set.Env.Commit)
	for _, w := range set.Workloads {
		fmt.Printf("%s: %d operations, %d failed; host CPU steal per run: median %.1f%%, max %.1f%%\n",
			w.Name, w.Attempted, w.Failed, 100*median(w.Steal), 100*percentile(w.Steal, 100))
		names := make([]string, 0, len(w.Metrics))
		for n := range w.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := w.Metrics[n]
			note := ""
			switch {
			case m.Exact && !allEqual(m.Values):
				note = "  exact per seed; differs between these seeds"
			case m.Exact:
				note = "  exact"
			case m.Bound > 0 && len(m.Values) >= 4 && m.Spread > m.Bound && n != "setup_s":
				note = fmt.Sprintf("  SPREAD EXCEEDS BOUND %.2f", m.Bound)
			case m.Bound > 0 && len(m.Values) >= 4 && m.Spread > m.Bound/3 && n != "setup_s":
				note = fmt.Sprintf("  spread above a third of bound %.2f", m.Bound)
			}
			fmt.Printf("  %-36s median %14.6g %-6s q1 %12.6g q3 %12.6g spread %6.2f%% n=%d%s\n",
				n, m.Median, m.Unit, m.Q1, m.Q3, 100*m.Spread, len(m.Values), note)
		}
	}
}

func allEqual(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func loadSet(path string) (*setResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setResult
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != setSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q (a file written by bench -runs)", path, s.Schema, setSchema)
	}
	return &s, nil
}

// worsening is how much worse b is than a, as a share of a: positive
// means worse, whichever direction is better for the metric.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	rel := (b - a) / a
	if better == "higher" {
		rel = -rel
	}
	return rel
}

// runCompare prints one row per workload x end-to-end metric of two
// result sets (A the baseline, B the candidate) with both medians, the
// relative difference and the bound, and one row per exact count. It
// returns 1 when B is worse than A beyond a bound, when a row cannot be
// resolved because a set's own quartile spread exceeds the bound, when an
// exact count differs, when a workload, end-to-end metric or exact count
// is missing from either set, or when either set recorded a failed
// operation.
func runCompare(w io.Writer, pathA, pathB string) int {
	a, err := loadSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compareSets(w, a, b)
}

// missingFrom names the set that lacks a row the other one has.
func missingFrom(inA bool) string {
	if inA {
		return "MISSING from B"
	}
	return "MISSING from A"
}

func compareSets(w io.Writer, a, b *setResult) int {
	bad := 0
	fmt.Fprintf(w, "A: %d run(s), commit %s    B: %d run(s), commit %s\n", a.Runs, a.Env.Commit, b.Runs, b.Env.Commit)
	fmt.Fprintf(w, "%-16s %-34s %14s %14s %9s %7s  %s\n", "workload", "metric", "median A", "median B", "B vs A", "bound", "verdict")
	inA, inB := map[string]setWorkload{}, map[string]setWorkload{}
	var workloads []string // A's order, then what only B has
	for _, wl := range a.Workloads {
		inA[wl.Name] = wl
		workloads = append(workloads, wl.Name)
	}
	for _, wl := range b.Workloads {
		inB[wl.Name] = wl
		if _, ok := inA[wl.Name]; !ok {
			workloads = append(workloads, wl.Name)
		}
	}
	compared := 0
	for _, name := range workloads {
		wa, okA := inA[name]
		wb, okB := inB[name]
		if !okA || !okB {
			// A workload whose every run died is left out of its set file.
			fmt.Fprintf(w, "%-16s no runs in one set  %s\n", name, missingFrom(okA))
			bad++
			continue
		}
		if wa.Failed > 0 || wb.Failed > 0 {
			fmt.Fprintf(w, "%-16s failed operations: A %d of %d, B %d of %d  FAILED\n", name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			bad++
		}
		seen := map[string]bool{}
		var names []string
		for _, ms := range []map[string]setMetric{wa.Metrics, wb.Metrics} {
			for n := range ms {
				if !seen[n] {
					seen[n] = true
					names = append(names, n)
				}
			}
		}
		sort.Strings(names)
		for _, n := range names {
			ma, okA := wa.Metrics[n]
			mb, okB := wb.Metrics[n]
			decl := ma // kind, bound and direction, from whichever set has the row
			if !okA {
				decl = mb
			}
			if decl.Kind != "end_to_end" && !decl.Exact {
				continue
			}
			if !okA || !okB {
				fmt.Fprintf(w, "%-16s %-34s %14s %14s %9s %7s  %s\n", name, n+" ["+decl.Unit+"]", "", "", "", "", missingFrom(okA))
				bad++
				continue
			}
			compared++
			if ma.Kind == "end_to_end" {
				rel := worsening(ma.Median, mb.Median, ma.Better)
				verdict := "ok"
				switch {
				case n != "setup_s" && len(ma.Values) >= 4 && len(mb.Values) >= 4 && (ma.Spread > ma.Bound || mb.Spread > ma.Bound):
					// The sets cannot resolve a change of the bound's size.
					verdict = fmt.Sprintf("unresolved (spread A %.1f%%, B %.1f%%)", 100*ma.Spread, 100*mb.Spread)
					bad++
				case rel > ma.Bound:
					verdict = "WORSE"
					bad++
				case rel < -ma.Bound:
					verdict = "better"
				}
				fmt.Fprintf(w, "%-16s %-34s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
					name, n+" ["+ma.Unit+"]", ma.Median, mb.Median, 100*rel, 100*ma.Bound, verdict)
				continue
			}
			verdict := "identical"
			if !sameCounts(wa.Seeds, ma.Values, wb.Seeds, mb.Values) {
				verdict = "EXACT COUNT DIFFERS"
				bad++
			}
			fmt.Fprintf(w, "%-16s %-34s %14.10g %14.10g %9s %7s  %s\n",
				name, n+" ["+ma.Unit+"]", ma.Median, mb.Median, "", "exact", verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d row(s) disagree\n", bad)
		return 1
	}
	if compared == 0 {
		fmt.Fprintln(w, "no workload and metric to compare")
		return 1
	}
	fmt.Fprintf(w, "%d row(s) agree within their bounds\n", compared)
	return 0
}

// sameCounts reports whether an exact count repeated: run by run when the
// two sets used the same seeds (a count may depend on the seed), else
// every value of both sets must be one number.
func sameCounts(seedsA []int64, va []float64, seedsB []int64, vb []float64) bool {
	if len(seedsA) == len(seedsB) && len(va) == len(vb) && len(va) == len(seedsA) {
		same := true
		for i := range seedsA {
			same = same && seedsA[i] == seedsB[i]
		}
		if same {
			for i := range va {
				if va[i] != vb[i] {
					return false
				}
			}
			return true
		}
	}
	return allEqual(append(append([]float64(nil), va...), vb...))
}

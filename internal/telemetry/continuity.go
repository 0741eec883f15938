package telemetry

// Trace-ID continuity validation: given a Chrome trace file, verify
// that every request-scoped span chain — svc.job at the service layer,
// job.run in the runner, scf.iter in the SCF driver, fock.build /
// fock.task in the Fock builders, mpi.op / dlb.draw underneath — shares
// one trace ID per request, and that no span in those categories runs
// untraced ("orphan") once request tracing is active. cmd/tracecheck
// runs this over fleet experiment traces in CI.

import (
	"encoding/json"
	"fmt"
	"sort"
)

// tracedCategories are the span categories that must carry a trace ID
// whenever request tracing is active (i.e. at least one svc.job span
// exists in the file). Standalone hfrun traces have no svc.job spans and
// pass trivially.
var tracedCategories = map[string]bool{
	"svc.job":    true,
	"job.run":    true,
	"scf.iter":   true,
	"fock.build": true,
	"fock.task":  true,
	"mpi.op":     true,
	"dlb.draw":   true,
}

// ContinuityStats summarizes trace-ID continuity across a trace file.
type ContinuityStats struct {
	Traces     int            // distinct trace IDs seen on svc.job spans
	Spans      int            // spans in traced categories
	Categories map[string]int // per-category span counts carrying a trace
	// PerTrace maps trace ID -> set of categories observed under it.
	PerTrace map[string]map[string]int
}

// ValidateContinuity parses Chrome trace JSON and checks request-scoped
// trace-ID continuity:
//
//   - every svc.job span carries a trace ID;
//   - every trace ID seen on a svc.job span also appears on at least one
//     scf.iter span and one fock.build span (the chain reached the
//     compute layers);
//   - no span in a traced category is an orphan (missing a trace ID)
//     while request tracing is active.
//
// A file with no svc.job spans (a standalone hfrun trace) passes
// trivially with zero Traces.
func ValidateContinuity(data []byte) (*ContinuityStats, error) {
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return nil, fmt.Errorf("telemetry: trace is not valid JSON: %w", err)
	}
	stats := &ContinuityStats{
		Categories: map[string]int{},
		PerTrace:   map[string]map[string]int{},
	}
	active := false
	for _, e := range tf.TraceEvents {
		if e.Ph == PhaseComplete && e.Cat == "svc.job" {
			active = true
			break
		}
	}
	if !active {
		return stats, nil
	}
	for i, e := range tf.TraceEvents {
		if e.Ph != PhaseComplete || !tracedCategories[e.Cat] {
			continue
		}
		stats.Spans++
		if e.Trace == "" {
			return nil, fmt.Errorf(
				"telemetry: orphan span %d: %s %q on pid=%d tid=%d has no trace ID",
				i, e.Cat, e.Name, e.Pid, e.Tid)
		}
		stats.Categories[e.Cat]++
		m := stats.PerTrace[e.Trace]
		if m == nil {
			m = map[string]int{}
			stats.PerTrace[e.Trace] = m
		}
		m[e.Cat]++
	}
	var jobTraces []string
	for id, cats := range stats.PerTrace {
		if cats["svc.job"] > 0 {
			jobTraces = append(jobTraces, id)
		}
	}
	sort.Strings(jobTraces)
	stats.Traces = len(jobTraces)
	if stats.Traces == 0 {
		return nil, fmt.Errorf("telemetry: svc.job spans present but none carry a trace ID")
	}
	for _, id := range jobTraces {
		cats := stats.PerTrace[id]
		for _, need := range []string{"scf.iter", "fock.build"} {
			if cats[need] == 0 {
				return nil, fmt.Errorf(
					"telemetry: trace %s has svc.job spans but no %s span — chain broken before the compute layers",
					id, need)
			}
		}
	}
	return stats, nil
}

package telemetry

// Load-imbalance profiling, read off the trace: every Fock build leaves
// one fock.build span per rank (named by variant, on the rank's pid
// lane) whose end args carry the rank's share — DLB tasks drawn
// ("tasks") and shell quartets evaluated ("quartets") — and whose
// duration is the rank's wall time inside the build. Builds are matched
// across ranks by per-rank sequence number (all ranks execute the same
// build sequence collectively: the k-th fock.build span of each pid
// within a variant is build k), and each build reduces to a max/mean
// imbalance factor — the quantity that justifies a dynamic load
// balancer design: 1.0 is a perfectly balanced build, and the paper's
// fine-grained ij task space exists precisely to keep this factor near
// 1 at high rank counts.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// BuildImbalance is the reduction of one build across its ranks.
type BuildImbalance struct {
	Ranks         int
	TaskFactor    float64 // max/mean of per-rank task counts
	QuartetFactor float64 // max/mean of per-rank quartet counts
	WallFactor    float64 // max/mean of per-rank wall times
	TotalTasks    int64
	TotalQuartets int64
	MaxWall       time.Duration
}

// VariantImbalance aggregates a Fock builder variant's builds.
type VariantImbalance struct {
	Variant string
	Builds  []BuildImbalance
	// Mean*Factor average the per-build factors; MaxTaskFactor is the
	// worst build observed.
	MeanTaskFactor    float64
	MaxTaskFactor     float64
	MeanQuartetFactor float64
	MeanWallFactor    float64
}

// rankLoad is one rank's share of one build, read off its span.
type rankLoad struct {
	tasks, quartets int64
	wall            time.Duration
}

// factor reduces per-rank values to max/mean (1 when the mean is 0).
func factor(vals []float64) float64 {
	if len(vals) == 0 {
		return 1
	}
	var sum, max float64
	for _, v := range vals {
		sum += v
		if v > max {
			max = v
		}
	}
	mean := sum / float64(len(vals))
	if mean == 0 {
		return 1
	}
	return max / mean
}

// Imbalance reduces the fock.build spans among events (in recording
// order) to per-build imbalance factors, grouped by variant (sorted by
// variant name).
func Imbalance(events []Event) []VariantImbalance {
	type rankBuilds struct {
		nextSeq map[int]int        // pid -> next build sequence number
		builds  []map[int]rankLoad // build seq -> pid -> load
	}
	variants := map[string]*rankBuilds{}
	for _, e := range events {
		if e.Cat != "fock.build" || e.Ph != PhaseComplete {
			continue
		}
		v := variants[e.Name]
		if v == nil {
			v = &rankBuilds{nextSeq: map[int]int{}}
			variants[e.Name] = v
		}
		seq := v.nextSeq[e.Pid]
		v.nextSeq[e.Pid] = seq + 1
		for len(v.builds) <= seq {
			v.builds = append(v.builds, map[int]rankLoad{})
		}
		tasks, _ := e.Args["tasks"].(int64)
		quartets, _ := e.Args["quartets"].(int64)
		v.builds[seq][e.Pid] = rankLoad{tasks, quartets, time.Duration(math.Round(e.Dur * 1e3))}
	}
	names := make([]string, 0, len(variants))
	for n := range variants {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]VariantImbalance, 0, len(names))
	for _, name := range names {
		vi := VariantImbalance{Variant: name}
		var sumT, sumQ, sumW float64
		for _, ranks := range variants[name].builds {
			var tasks, quartets, walls []float64
			b := BuildImbalance{Ranks: len(ranks)}
			for _, l := range ranks {
				tasks = append(tasks, float64(l.tasks))
				quartets = append(quartets, float64(l.quartets))
				walls = append(walls, float64(l.wall))
				b.TotalTasks += l.tasks
				b.TotalQuartets += l.quartets
				if l.wall > b.MaxWall {
					b.MaxWall = l.wall
				}
			}
			b.TaskFactor = factor(tasks)
			b.QuartetFactor = factor(quartets)
			b.WallFactor = factor(walls)
			vi.Builds = append(vi.Builds, b)
			sumT += b.TaskFactor
			sumQ += b.QuartetFactor
			sumW += b.WallFactor
			if b.TaskFactor > vi.MaxTaskFactor {
				vi.MaxTaskFactor = b.TaskFactor
			}
		}
		if n := float64(len(vi.Builds)); n > 0 {
			vi.MeanTaskFactor = sumT / n
			vi.MeanQuartetFactor = sumQ / n
			vi.MeanWallFactor = sumW / n
		}
		out = append(out, vi)
	}
	return out
}

// FormatImbalance renders the imbalance rows as the end-of-run report:
// one aggregate line per variant plus a compact per-build factor list.
func FormatImbalance(rows []VariantImbalance) string {
	if len(rows) == 0 {
		return "load imbalance: no builds recorded\n"
	}
	var b strings.Builder
	b.WriteString("load imbalance (max/mean across ranks, averaged over builds; 1.00 = perfect):\n")
	fmt.Fprintf(&b, "  %-16s %7s %6s %10s %10s %10s %11s\n",
		"variant", "builds", "ranks", "task-imb", "quart-imb", "wall-imb", "worst-task")
	for _, r := range rows {
		ranks := 0
		if len(r.Builds) > 0 {
			ranks = r.Builds[0].Ranks
		}
		fmt.Fprintf(&b, "  %-16s %7d %6d %10.2f %10.2f %10.2f %11.2f\n",
			r.Variant, len(r.Builds), ranks,
			r.MeanTaskFactor, r.MeanQuartetFactor, r.MeanWallFactor, r.MaxTaskFactor)
	}
	for _, r := range rows {
		const maxShown = 24
		var parts []string
		for i, bi := range r.Builds {
			if i == maxShown {
				parts = append(parts, fmt.Sprintf("… (+%d more)", len(r.Builds)-maxShown))
				break
			}
			parts = append(parts, fmt.Sprintf("%.2f", bi.TaskFactor))
		}
		fmt.Fprintf(&b, "  %s per-build task factors: %s\n", r.Variant, strings.Join(parts, " "))
	}
	return b.String()
}

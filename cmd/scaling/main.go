// Command scaling is the repo's one experiment driver: every paper
// artifact, every live gate and the serving load test is a row of the
// experiments table below, selected by id.
//
//	scaling -exp table3         # one experiment
//	scaling -exp all            # every experiment except paper
//	scaling -exp paper          # water validation + the paper's Tables 2-3 and Figures 3-7, with section timings
//	scaling -exp fleet -csv out # also write out/fleet.csv
//
// Every gate of every experiment prints one PASS/FAIL line through the
// gate recorder; the process exits 1 if any gate missed and 2 on an
// unknown id (the error lists the table).
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/simulate"
)

// experiment is one row of the driver's table.
type experiment struct {
	id, title string
	run       func(*env)
}

// experiments returns the table, in "all" execution order. A function
// rather than a variable because paper looks its sections up in it.
func experiments() []experiment {
	return []experiment{
		{"table2", "Table 2: per-node memory footprints (model, eqs. 3a-3c)",
			model(func(*simulate.ProfileCache) ([]simulate.Table2Row, error) { return simulate.RunTable2(), nil }, table2Table)},
		{"table3", "Table 3 / Figure 6: 2.0 nm on Theta, 4-512 nodes",
			model(simulate.RunTable3, scalingTable)},
		{"fig3", "Figure 3: thread affinity, shared-Fock, 1.0 nm, 1 node",
			model(simulate.RunFig3, fig3Table)},
		{"fig4", "Figure 4: single-node hardware-thread scaling, 1.0 nm",
			model(simulate.RunFig4, fig4Table)},
		{"fig5", "Figure 5: cluster x memory modes, 0.5 nm and 2.0 nm",
			model(simulate.RunFig5, fig5Table)},
		{"fig7", "Figure 7: shared-Fock, 5.0 nm, 512-3,000 Theta nodes",
			model(simulate.RunFig7, fig7Table)},
		{"sweep", "Extension: system sweep at 64 nodes (screening-driven scaling)",
			model(func(pc *simulate.ProfileCache) ([]simulate.SweepRow, error) { return simulate.RunSystemSweep(pc, 64) }, sweepTable)},
		{"breakdown", "Extension: component breakdown, 2.0 nm at 64 and 512 nodes", model(breakdown, breakdownTable)},
		{"ablation", "Ablation: DLB contention coefficient and task granularity (512 nodes)", ablation},
		{"resilience", "Failure model: 5.0 nm at scale, checkpoint restart vs. lease re-issue", resilience},
		{"sdc", "SDC model: silent-corruption risk vs. verified-run overhead (5.0 nm, Figure 7 config)", sdc},
		{"chaos", "Chaos: straggler & partition tolerance (live mitigation gates)", liveChaos},
		{"fleet", "Fleet: 3 WAL-backed replicas, kill-one chaos, exactly-once gate", liveFleet},
		{"obs", "Observability: fleet-wide request tracing, waterfall + continuity gate", liveObs},
		{"elastic", "Elastic: grow-and-shrink membership, migration, autoscaler gates", liveElastic},
		{"distmat", "Distmat: distributed 2D-blocked matrices + purification SCF gates", liveDistmat},
		{"abft", "ABFT: checksum tiles, kill-a-rank reconstruction, bit-flip audit gates", liveABFT},
		{"serve", "Serve: one hfserve under a duplicate-heavy burst (cache, backpressure, drain gates)", liveServe},
		{"paper", "Reproduction suite: water validation + Tables 2-3, Figures 3-7", paper},
	}
}

// env is what an experiment runs against: the simulator's profile cache,
// the command-line knobs, the CSV sink and the gate recorder.
type env struct {
	*gates
	id       string // the running experiment; names its CSV file
	pc       *simulate.ProfileCache
	grace    time.Duration
	obsTrace string
	csvDir   string
}

// writeCSV writes content to <csvDir>/<id>.csv when -csv is set.
func (e *env) writeCSV(content string) {
	if e.csvDir == "" {
		return
	}
	check(os.MkdirAll(e.csvDir, 0o755))
	path := filepath.Join(e.csvDir, e.id+".csv")
	check(os.WriteFile(path, []byte(content), 0o644))
	fmt.Printf("wrote %s\n", path)
}

// emit prints t and writes it as the experiment's CSV.
func (e *env) emit(t *table) {
	fmt.Print(t.text())
	e.writeCSV(t.csv())
}

// runOne runs one table row: title, body, gate tally, wall time.
func (e *env) runOne(ex experiment) {
	start, before := time.Now(), *e.gates
	e.id = ex.id
	fmt.Printf("== %s ==\n", ex.title)
	ex.run(e)
	if n := e.failed - before.failed; n > 0 {
		fmt.Fprintf(os.Stderr, "scaling: %s: %d gate(s) FAILED\n", ex.id, n)
	} else if n := e.passed - before.passed; n > 0 {
		fmt.Printf("  %s: all %d gates PASS\n", ex.id, n)
	}
	fmt.Printf("[%s done in %v]\n\n", ex.id, time.Since(start).Round(time.Millisecond))
}

func main() {
	table := experiments()
	ids := make([]string, len(table))
	for i, ex := range table {
		ids[i] = ex.id
	}
	menu := strings.Join(ids, ", ") + ", all"
	exp := flag.String("exp", "all", "experiment id: "+menu)
	csvDir := flag.String("csv", "", "also write <experiment>.csv files into this directory")
	grace := flag.Duration("grace", 0, "unwind grace past the deadline for fault-injected live runs (0 = runtime default)")
	obsTrace := flag.String("obs-trace", "", "obs experiment: write the merged fleet Chrome trace to this path")
	pprofA := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
	flag.Parse()

	if *pprofA != "" {
		go func() {
			if err := http.ListenAndServe(*pprofA, nil); err != nil {
				fmt.Fprintln(os.Stderr, "scaling: pprof:", err)
			}
		}()
	}

	e := &env{gates: &gates{out: os.Stdout}, pc: simulate.NewProfileCache(),
		grace: *grace, obsTrace: *obsTrace, csvDir: *csvDir}
	want := *exp
	if want == "fig6" { // Figure 6 is Table 3's plot
		want = "table3"
	}
	ran := false
	for _, ex := range table {
		// all skips paper, which re-runs six of the rows before it.
		if ex.id == want || (want == "all" && ex.id != "paper") {
			e.runOne(ex)
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "scaling: unknown experiment %q (available: %s)\n", *exp, menu)
		os.Exit(2)
	}
	os.Exit(e.exitStatus())
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		os.Exit(1)
	}
}

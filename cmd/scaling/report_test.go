package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/simulate"
)

// TestGateRecorder: a failing gate prints a FAIL line and makes the exit
// status non-zero, and the gates after it are still evaluated and
// printed.
func TestGateRecorder(t *testing.T) {
	var out bytes.Buffer
	g := &gates{out: &out}
	if !g.check("first holds", true, "1 <= 2") || g.exitStatus() != 0 {
		t.Fatalf("a passing gate must return true and leave status 0 (status %d)", g.exitStatus())
	}
	if g.check("second misses", false, "3 > 2") {
		t.Fatal("a failing gate must return false")
	}
	g.check("third holds", true, "after the miss")
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want one line per gate, got %d:\n%s", len(lines), out.String())
	}
	for i, want := range []string{"PASS", "FAIL", "PASS"} {
		if !strings.HasSuffix(lines[i], want) {
			t.Errorf("line %d = %q, want verdict %s", i, lines[i], want)
		}
	}
	if !strings.Contains(lines[1], "second misses") || !strings.Contains(lines[1], "3 > 2") {
		t.Errorf("FAIL line lost its name or detail: %q", lines[1])
	}
	if g.exitStatus() == 0 || g.passed != 2 || g.failed != 1 {
		t.Errorf("status %d passed %d failed %d, want non-zero/2/1", g.exitStatus(), g.passed, g.failed)
	}
}

// TestTableTextAndCSVAgree: both renderings carry the same cells, and a
// wide table is transposed in text only.
func TestTableTextAndCSVAgree(t *testing.T) {
	narrow := newTable("mode", "wall_ms")
	narrow.row("clean", f2(1.5))
	narrow.row("slow", "")
	if got, want := narrow.csv(), "mode,wall_ms\nclean,1.50\nslow,\n"; got != want {
		t.Errorf("csv = %q, want %q", got, want)
	}
	if got, want := narrow.text(), "  mode   wall_ms\n  clean     1.50\n  slow\n"; got != want {
		t.Errorf("text = %q, want %q", got, want)
	}
	wide := newTable("a", "b", "c", "d", "e", "f", "g", "h", "i")
	wide.row(1, 2, 3, 4, 5, 6, 7, 8, 9)
	if got := wide.text(); !strings.HasPrefix(got, "  a  1\n  b  2\n") {
		t.Errorf("wide table not transposed:\n%s", got)
	}
	if !strings.HasPrefix(wide.csv(), "a,b,c,d,e,f,g,h,i\n1,2,") {
		t.Errorf("wide csv must keep column orientation:\n%s", wide.csv())
	}
}

// TestFormattersAndCSV renders the simulated artifacts through their one
// table each: the CSV keeps the column names and precision the plotted
// files have always had, the terminal text carries the same cells, and an
// infeasible configuration is an empty cell in both.
func TestFormattersAndCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config simulation")
	}
	pc := simulate.NewProfileCache()
	mustContain := func(name, got string, subs ...string) {
		t.Helper()
		for _, sub := range subs {
			if !strings.Contains(got, sub) {
				t.Errorf("%s: %q not in\n%s", name, sub, got)
			}
		}
	}
	t2 := table2Table(simulate.RunTable2())
	mustContain("table2 csv", t2.csv(), "system,atoms,basis_functions,mpi_gb", "0.5nm,44,660,8.1542")
	mustContain("table2 text", t2.text(), "0.5nm", "5.0nm", "ratio_distributed")

	rows3, err := simulate.RunTable3(pc)
	if err != nil {
		t.Fatal(err)
	}
	t3 := scalingTable(rows3)
	mustContain("table3 csv", t3.csv(), "nodes,mpi_s,private_fock_s,shared_fock_s,mpi_eff_pct", "\n512,", "\n4,")
	mustContain("table3 text", t3.text(), "nodes", "512", "shared_eff_pct")

	rows3f, err := simulate.RunFig3(pc)
	if err != nil {
		t.Fatal(err)
	}
	f3 := fig3Table(rows3f)
	mustContain("fig3 csv", f3.csv(), "threads_per_rank,", "compact_s", "\n64,")
	mustContain("fig3 text", f3.text(), "compact_s", "64")

	rows4, err := simulate.RunFig4(pc)
	if err != nil {
		t.Fatal(err)
	}
	f4 := fig4Table(rows4)
	mustContain("fig4 csv (the MPI-only 256-thread cell is empty: out of memory)", f4.csv(), "hw_threads,mpi_s", "\n256,,")
	if last := strings.Fields(strings.Split(strings.TrimSpace(f4.text()), "\n")[len(rows4)]); len(last) != 3 || last[0] != "256" {
		t.Errorf("fig4 text: the 256-thread line must show two times beside a blank MPI-only cell, got %q", last)
	}

	rows5, err := simulate.RunFig5(pc)
	if err != nil {
		t.Fatal(err)
	}
	f5 := fig5Table(rows5)
	mustContain("fig5 csv", f5.csv(), "system,cluster_mode,memory_mode,mpi_s", "quadrant")
	mustContain("fig5 text", f5.text(), "all-to-all", "flat-mcdram")

	sweep, err := simulate.RunSystemSweep(pc, 64)
	if err != nil {
		t.Fatal(err)
	}
	mustContain("sweep text", sweepTable(sweep).text(), "sig_pairs", "2.0nm", "quartet_growth")

	bd, err := breakdown(pc)
	if err != nil {
		t.Fatal(err)
	}
	if bt := breakdownTable(bd); len(bt.rows) != 6 {
		t.Errorf("breakdown: %d rows, want 3 codes x {64, 512} nodes", len(bt.rows))
	} else {
		mustContain("breakdown csv", bt.csv(), "algorithm,nodes,time_s,compute_pct", "mpi-only,64,", "shared-fock,512,")
	}

	// The 5.0 nm artifacts (Figure 7 and the two failure models priced on
	// it) cost ~9 s to simulate; their tables are checked on hand-made rows.
	f7 := fig7Table([]simulate.Fig7Row{{Nodes: 512, Cores: 32768, TimeSec: 648.784, EffPct: 100, MemGB: 96.08}})
	if got, want := f7.csv(), "nodes,cores,time_s,efficiency_pct,gb_per_node\n512,32768,648.78,100.0,96.1\n"; got != want {
		t.Errorf("fig7 csv = %q, want %q", got, want)
	}
	rt := resilienceTable([]simulate.ResilienceRow{{Nodes: 3000, SysMTBFH: 5.833, IterSec: 117.3, BaseSec: 2111.4,
		ExpFailures: 0.1005, RestartSec: math.Inf(1), RestartOv: math.Inf(1), ReissueSec: 2112.9, ReissueOv: 0.0007}})
	if got, want := rt.csv(), "nodes,system_mtbf_h,iter_s,base_s,expected_failures,restart_s,restart_overhead_pct,reissue_s,reissue_overhead_pct\n"+
		"3000,5.83,117.30,2111.40,0.101,+Inf,+Inf,2112.90,0.07\n"; got != want {
		t.Errorf("resilience csv = %q, want %q", got, want)
	}
	mustContain("resilience text (9 columns: transposed)", rt.text(), "restart_overhead_pct     +Inf\n")
	st := sdcTable([]simulate.SDCRow{{Nodes: 512, EventsPerHour: 0.0512, ExpEvents: 0.166, PWrongBare: 0.153,
		PWrongVerif: 0.00083, BaseSec: 11678, RecomputeSec: 53.6, VerifiedSec: 11965, VerifiedOv: 0.02459}})
	if got, want := st.csv(), "nodes,critical_strikes_per_hour,expected_strikes,p_wrong_bare,p_wrong_verified,base_s,recompute_s,verified_s,verified_overhead_pct\n"+
		"512,0.051200,0.166000,1.530000e-01,8.300000e-04,11678.00,53.600,11965.00,2.459\n"; got != want {
		t.Errorf("sdc csv = %q, want %q", got, want)
	}
}

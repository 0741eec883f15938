package main

import (
	"path/filepath"
	"testing"
)

// TestFleetChaosSmall is the scaled-down tier-1 version of the fleet
// chaos gate (the full >= 1000-job run lives behind `scaling -exp
// fleet`): 3 replicas, a 120-job duplicate storm over 6 distinct
// hashes, one replica killed mid-run with victim jobs parked on its
// queue and restarted from its WAL. Same invariants, smaller numbers.
func TestFleetChaosSmall(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp) // the harness creates its WAL roots under os.TempDir
	rep, err := runFleet(fleetLoad{jobs: 120, distinct: 6, clients: 4, victims: 3})
	if err != nil {
		t.Fatalf("runFleet: %v", err)
	}
	for _, p := range []struct {
		name string
		run  fleetRun
	}{{"baseline", rep.baseline}, {"chaos", rep.chaos}} {
		if p.run.storm.submitted < 120 {
			t.Errorf("%s: storm submitted %d, want >= 120", p.name, p.run.storm.submitted)
		}
		if p.run.lost != 0 || p.run.failed != 0 {
			t.Errorf("%s: lost %d failed %d, want 0/0", p.name, p.run.lost, p.run.failed)
		}
		if p.run.minExec != 1 || p.run.maxExec != 1 {
			t.Errorf("%s: executions per hash %d..%d, want exactly 1",
				p.name, p.run.minExec, p.run.maxExec)
		}
	}
	if rep.chaos.reenqueued < 1 {
		t.Errorf("chaos: WAL re-enqueued %d jobs, want >= 1", rep.chaos.reenqueued)
	}
	if gap := rep.hitRateGap(); gap > 5 {
		t.Errorf("hit-rate gap %.2f points, want <= 5 (baseline %.1f%%, chaos %.1f%%)",
			gap, rep.baseline.storm.hitRate(), rep.chaos.storm.hitRate())
	}
	if tab := rep.table(); tab.csv() == "" || tab.text() == "" {
		t.Error("empty report rendering")
	}
	// Both passes created a WAL root; each must be gone once its pass ended.
	if left, _ := filepath.Glob(filepath.Join(tmp, "hffleet-*")); len(left) != 0 {
		t.Errorf("harness-created WAL roots left behind: %v", left)
	}
}

package simulate

import (
	"math"
	"testing"
)

func TestRunResilience(t *testing.T) {
	if testing.Short() {
		t.Skip("5.0nm profile derivation")
	}
	pc := testCache
	rows, err := RunResilience(pc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 || rows[0].Nodes != 512 || rows[len(rows)-1].Nodes != 3000 {
		t.Fatalf("unexpected node sweep: %+v", rows)
	}
	for i, r := range rows {
		if r.IterSec <= 0 || r.BaseSec != resilienceIters*r.IterSec {
			t.Fatalf("nodes=%d: bad base time %+v", r.Nodes, r)
		}
		if math.IsInf(r.RestartSec, 1) || math.IsInf(r.ReissueSec, 1) {
			t.Fatalf("nodes=%d: recovery diverges in the paper's regime", r.Nodes)
		}
		// Both strategies cost something, and absorbing the failure
		// in-flight must beat tearing the job down and relaunching.
		if r.RestartSec <= r.BaseSec || r.ReissueSec <= r.BaseSec {
			t.Fatalf("nodes=%d: recovery cannot be free: %+v", r.Nodes, r)
		}
		if r.ReissueSec >= r.RestartSec {
			t.Fatalf("nodes=%d: re-issue (%v s) should beat restart (%v s)",
				r.Nodes, r.ReissueSec, r.RestartSec)
		}
		// Failure rate (and expected failure count per unit work) grows
		// with the node count.
		if i > 0 && r.SysMTBFH >= rows[i-1].SysMTBFH {
			t.Fatalf("system MTBF must shrink with nodes: %v then %v",
				rows[i-1].SysMTBFH, r.SysMTBFH)
		}
	}
	// The restart overhead must grow with scale: failures arrive faster
	// while the fixed relaunch latency stays constant.
	if rows[len(rows)-1].RestartOv <= rows[0].RestartOv {
		t.Fatalf("restart overhead should grow with scale: %v -> %v",
			rows[0].RestartOv, rows[len(rows)-1].RestartOv)
	}
}

func TestExpectedTimeDiverges(t *testing.T) {
	if v := expectedTime(100, 0.01, 50); math.Abs(v-200) > 1e-9 {
		t.Fatalf("expectedTime = %v, want 200", v)
	}
	if v := expectedTime(100, 0.01, 100); !math.IsInf(v, 1) {
		t.Fatalf("lambda*cost=1 must diverge, got %v", v)
	}
	if v := expectedTime(100, 0, 1e9); v != 100 {
		t.Fatalf("no failures means no overhead, got %v", v)
	}
}

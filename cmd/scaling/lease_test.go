package main

import "testing"

// TestChaosWorkloadExactlyOnce runs the live chaos micro-benchmark and
// checks its correctness invariants: every mode pushes each task exactly
// once (speculation included), and the mitigated run actually hedged.
// Wall-time ratios are asserted only by the `scaling -exp chaos` gate —
// unit tests on shared CI machines must not gate on the scheduler.
func TestChaosWorkloadExactlyOnce(t *testing.T) {
	r, err := runChaosWorkload()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name string
		run  leaseRun
	}{
		{"clean", r.clean},
		{"unmitigated", r.unmitigated},
		{"mitigated", r.mitigated},
	} {
		if m.run.pushes != chaosTasks {
			t.Errorf("%s: %d pushes for %d tasks (lost or duplicated work)",
				m.name, m.run.pushes, chaosTasks)
		}
	}
	if r.hedged == 0 {
		t.Error("mitigated run never hedged the straggler")
	}
	if r.reissued < r.hedged {
		t.Errorf("dlb.reissued = %d < dlb.hedged = %d", r.reissued, r.hedged)
	}
}

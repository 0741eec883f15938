package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeEnv is a benchEnv whose hfrun is a script printing a canned
// converged summary, so the end-to-end path runs in milliseconds.
func fakeEnv(t *testing.T) *benchEnv {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	script := filepath.Join(dir, "hfrun")
	body := "#!/bin/sh\ncat <<'EOF'\n" + sampleHFRun + "EOF\n"
	if err := os.WriteFile(script, []byte(body), 0o755); err != nil {
		t.Fatal(err)
	}
	return &benchEnv{root: root, hfrun: script, tmp: dir}
}

// A deliberately wrong reference must fail every operation
// (failed_frac = 1) and turn the exit code non-zero; the right one must
// pass. This is how the correctness check is known to fire.
func TestWrongReferenceFailsEveryRun(t *testing.T) {
	e := fakeEnv(t)
	w := scfWorkloads[wlDimer]
	right, err := loadReference(e.root) // the pinned file, as every run reads it
	if err != nil {
		t.Fatal(err)
	}
	wrong := &reference{ToleranceHa: right.ToleranceHa, SCF: map[string]float64{wlDimer: right.SCF[wlDimer] - 1e-3}}

	res, err := runSCF(e, w, right, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted < minSCFRuns || res.failedFrac() != 0 || !res.correct() {
		t.Fatalf("right reference: attempted %d, failed %d (%v)", res.Attempted, res.Failed, res.Failures)
	}
	for _, m := range endToEnd {
		if s, ok := res.Metrics[m.Name]; !ok || s.Value <= 0 || s.Unit != m.Unit {
			t.Errorf("end-to-end metric %s = %+v", m.Name, s)
		}
	}
	if code := quietly(t, func() int { return report(res, "") }); code != 0 {
		t.Errorf("exit code %d with every check passing", code)
	}

	res, err = runSCF(e, w, wrong, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if res.failedFrac() != 1 || res.correct() {
		t.Fatalf("wrong reference: failed_frac = %v, want 1", res.failedFrac())
	}
	out := filepath.Join(e.tmp, "run.json")
	if code := quietly(t, func() int { return report(res, out) }); code == 0 {
		t.Error("exit code 0 although every run failed its check")
	}
	line, err := res.contractLine()
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if got.Correct || got.Failed != got.Attempted || strings.Contains(line, "\n") {
		t.Errorf("contract line %s", line)
	}
	if _, err := os.Stat(out); err != nil {
		t.Errorf("results file not written: %v", err)
	}
}

// quietly runs f with standard output and error discarded.
func quietly(t *testing.T, f func() int) int {
	t.Helper()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = null, null
	defer func() { os.Stdout, os.Stderr = stdout, stderr }()
	return f()
}

// An hfrun that cannot start measures nothing, so the run must end with
// an error instead of repeating it until the window fills.
func TestMissingHFRunAborts(t *testing.T) {
	e := fakeEnv(t)
	e.hfrun = filepath.Join(e.tmp, "absent")
	ref := &reference{ToleranceHa: 1e-8, SCF: map[string]float64{wlDimer: -152.0298289720}}
	if _, err := runSCF(e, scfWorkloads[wlDimer], ref, 3600); !errors.Is(err, errNotStarted) {
		t.Fatalf("runSCF with no hfrun binary: %v, want errNotStarted", err)
	}
}

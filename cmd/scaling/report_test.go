package main

import (
	"bytes"
	"strings"
	"testing"
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

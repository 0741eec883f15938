package main

import (
	"testing"
	"time"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Two children run in parallel and overlap; a third is separate; a
	// fourth sticks out past the parent's end. Covered = union, clipped.
	spans := []Span{
		{ID: 1, Parent: 0, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 70},
		{ID: 4, Parent: 1, Name: "c", Start: 80, End: 90},
		{ID: 5, Parent: 1, Name: "d", Start: 95, End: 120},
		{ID: 6, Parent: 2, Name: "leaf", Start: 20, End: 30},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - (60 + 10 + 5), 2: 30, 3: 40, 4: 10, 5: 25, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
}

func TestSelfTimesSumToRootForSequentialTree(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, Name: "workload", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Name: "setup", Start: 5, End: 105},
		{ID: 3, Parent: 2, Name: "basis.build", Start: 10, End: 40},
		{ID: 4, Parent: 1, Name: "scf.run", Start: 110, End: 990},
		{ID: 5, Parent: 4, Name: "fock.build", Start: 120, End: 500},
		{ID: 6, Parent: 5, Name: "integrals.eri", Start: 120, End: 480},
		{ID: 7, Parent: 4, Name: "fock.build", Start: 510, End: 900},
	}
	byName, total := selfByName(spans)
	if total != 1000 {
		t.Errorf("self times sum to %d, want the root's 1000", total)
	}
	if byName["workload"] != 1000-100-880 {
		t.Errorf("unattributed = %d, want 20", byName["workload"])
	}
	if byName["fock.build"] != 20+390 || byName["integrals.eri"] != 360 || byName["scf.run"] != 880-380-390 {
		t.Errorf("self by name = %v", byName)
	}
}

func TestTracerRecordsAndNilTracerDoesNot(t *testing.T) {
	var none *Tracer
	id := none.Start("x", 0)
	none.End(id)
	none.Add("y", id, time.Now(), time.Second)
	if none.Spans() != nil {
		t.Error("a nil tracer recorded spans")
	}
	tr := newTracer("w")
	root := tr.Start("workload", 0)
	child := tr.Start("child", root)
	tr.End(child)
	acc := tr.Add("acc", root, time.Now(), 5*time.Millisecond)
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 3 || spans[1].Parent != root || spans[acc-1].End-spans[acc-1].Start != 5e6 {
		t.Errorf("spans = %+v", spans)
	}
	for _, s := range spans {
		if s.Workload != "w" || s.End < s.Start {
			t.Errorf("bad span %+v", s)
		}
	}
}

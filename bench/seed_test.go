package main

import (
	"bytes"
	"testing"
)

func TestRequestListSeedDeterminism(t *testing.T) {
	const n = 125 * blockRequests // 3000
	a, b, c := requestList(7, n), requestList(7, n), requestList(8, n)
	mix := func(rs []request) (hot, miss int) {
		for _, r := range rs {
			if r.hot >= 0 {
				hot++
			} else {
				miss++
			}
		}
		return
	}
	differs := false
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) || a[i].hot != b[i].hot {
			t.Fatalf("request %d differs between two lists of the same seed", i)
		}
		if !bytes.Equal(a[i].body, c[i].body) {
			differs = true
		}
	}
	if !differs {
		t.Error("a different seed gave the same request list")
	}
	ha, ma := mix(a)
	hc, mc := mix(c)
	if ha != n*3/4 || ma != n/4 || hc != ha || mc != ma {
		t.Errorf("mix: seed 7 %d hot / %d miss, seed 8 %d / %d; want %d / %d", ha, ma, hc, mc, n*3/4, n/4)
	}
	// Every miss is a geometry nobody sent before.
	seen := map[string]bool{}
	for _, h := range hotSpecs() {
		seen[string(h.body)] = true
	}
	if len(seen) != 8 {
		t.Fatalf("%d distinct hot specs, want 8", len(seen))
	}
	for _, r := range a {
		if r.hot < 0 {
			if seen[string(r.body)] {
				t.Fatal("a miss repeats an earlier request")
			}
			seen[string(r.body)] = true
		}
	}
}

func TestSyntheticFockSeedDeterminism(t *testing.T) {
	a, b, c := syntheticGappedFock(64, 32, 5), syntheticGappedFock(64, 32, 5), syntheticGappedFock(64, 32, 6)
	if a.Rows != 64 || c.Rows != 64 || len(a.Data) != len(c.Data) {
		t.Fatal("sizes differ")
	}
	same := true
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("element %d differs between two matrices of the same seed", i)
		}
		same = same && a.Data[i] == c.Data[i]
	}
	if same {
		t.Error("a different seed gave the same matrix")
	}
	if !a.IsSymmetric(0) {
		t.Error("synthetic Fock is not symmetric")
	}
}

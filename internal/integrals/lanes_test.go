package integrals

import (
	"math"
	"testing"
	"unsafe"
)

// withBodies runs f once per 4-lane body this CPU runs: the pure-Go one
// and, where package init selected it, the assembly one.
func withBodies(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	selected := lanes
	defer func() { lanes = selected }()
	bodies := []laneBody{goLanes}
	if selected.name != goLanes.name {
		bodies = append(bodies, selected)
	}
	for _, b := range bodies {
		lanes = b
		t.Run(b.name, f)
	}
}

// The assembly body reads rStep, laneTerm, primBatch, hermIndex and
// eriScratch at fixed offsets, and the Boys table by the grid constants it
// was written for.
func TestLaneLayout(t *testing.T) {
	var st rStep
	var lt laneTerm
	var pb primBatch
	var x hermIndex
	var s eriScratch
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"rStep.coef", unsafe.Offsetof(st.coef), 0},
		{"rStep.dst", unsafe.Offsetof(st.dst), 8},
		{"rStep.a", unsafe.Offsetof(st.a), 10},
		{"rStep.b", unsafe.Offsetof(st.b), 12},
		{"rStep.axis", unsafe.Offsetof(st.axis), 14},
		{"rStep size", unsafe.Sizeof(st), 16},
		{"laneTerm.g", unsafe.Offsetof(lt.g), 0},
		{"laneTerm.ab", unsafe.Offsetof(lt.ab), 32},
		{"laneTerm.h", unsafe.Offsetof(lt.h), 34},
		{"laneTerm.off", unsafe.Offsetof(lt.off), 36},
		{"laneTerm size", unsafe.Sizeof(lt), 40},
		{"primBatch.p", unsafe.Offsetof(pb.p), 0},
		{"primBatch.x", unsafe.Offsetof(pb.x), 32},
		{"primBatch.y", unsafe.Offsetof(pb.y), 64},
		{"primBatch.z", unsafe.Offsetof(pb.z), 96},
		{"primBatch.n", unsafe.Offsetof(pb.n), 128},
		{"primBatch.terms", unsafe.Offsetof(pb.terms), 136},
		{"primBatch size", unsafe.Sizeof(pb), 160},
		{"hermIndex.count", unsafe.Offsetof(x.count), 8},
		{"hermIndex.off", unsafe.Offsetof(x.off), 32},
		{"hermIndex.sign", unsafe.Offsetof(x.sign), 56},
		{"hermIndex.steps", unsafe.Offsetof(x.steps), 80},
		{"hermIndex.boys", unsafe.Offsetof(x.boys), 104},
		{"eriScratch.r0", unsafe.Offsetof(s.r0), 0},
		{"eriScratch.r1", unsafe.Offsetof(s.r1), 24},
		{"eriScratch.k4", unsafe.Offsetof(s.k4), 48},
		{"eriScratch.kt", unsafe.Offsetof(s.kt), 72},
		{"eriScratch.k", unsafe.Offsetof(s.k), 96},
		{"eriScratch.fn4", unsafe.Offsetof(s.fn4), 144},
		{"eriScratch.d", unsafe.Offsetof(s.d), 168},
		{"eriScratch.pref", unsafe.Offsetof(s.pref), 296},
		{"boysStride", boysStride, 32},
		{"boysNodes", boysNodes, 841},
		{"boysStep * 10", uintptr(boysStep * 10), 1},
		{"boysTableMax", uintptr(boysTableMax), 84},
		{"maxBoysOrder", maxBoysOrder, 24},
	} {
		if c.got != c.want {
			t.Errorf("%s at %d, the assembly reads it at %d", c.name, c.got, c.want)
		}
	}
}

// TestLaneSetup checks the set-up lane by lane against scalar Boys times
// (-2 alpha)^n, Q - P and (p+q)^{-1/2}, on batches that mix lanes on the
// Boys grid, lanes where the exp(-T) tail still counts (35 < T <= 83.7),
// lanes past the grid and padding lanes, at every order up to
// maxBoysOrder. Padding lanes need only be finite.
func TestLaneSetup(t *testing.T) {
	table := boysTableReady()
	const p = 0.8
	c := [3]float64{0.3, -0.2, 0.1}
	// Each lane: exponent q and the T it is placed at.
	type lane struct{ q, t float64 }
	batches := [][]lane{
		{{1.3, 0}, {0.4, 1e-10}, {2.2, 0.05}, {0.7, 3.3}},
		{{0.9, 20}, {5.0, 34.99}, {0.5, 35.05}, {1.1, 40}},
		{{3.1, 52.6}, {0.2, 60}, {0.6, 83.7}, {1.7, 83.99}},
		{{0.3, 84}, {2.5, 84.01}, {0.8, 90}, {4.4, 700}},
		{{1.5, 0.77}, {0.25, 150}, {6.0, 37.5}},
		{{0.35, 61}},
		{{0.45, 1e4}, {0.55, 12.34}},
	}
	fn := make([]float64, 4*(maxBoysOrder+1))
	want := make([]float64, maxBoysOrder+1)
	withBodies(t, func(t *testing.T) {
		for bi, lb := range batches {
			var kb primBatch
			kb.n = len(lb)
			for k, ln := range lb {
				// Along a fixed skew direction, at the distance that gives T.
				alpha := p * ln.q / (p + ln.q)
				r := math.Sqrt(ln.t / alpha)
				kb.p[k] = ln.q
				kb.x[k], kb.y[k], kb.z[k] = c[0]+r*0.48, c[1]-r*0.6, c[2]+r*0.64
			}
			for l := 0; l <= maxBoysOrder; l++ {
				var d [4][4]float64
				var pref [4]float64
				for i := range fn {
					fn[i] = math.NaN()
				}
				lanes.setup(fn[:4*(l+1)], l, p, &c, &kb, &d, &pref, table)
				for k := 0; k < 4; k++ {
					if k >= kb.n {
						for n := 0; n <= l; n++ {
							if v := fn[4*n+k]; math.IsNaN(v) || math.IsInf(v, 0) {
								t.Fatalf("batch %d l=%d padding lane %d: fn[%d] = %v", bi, l, k, n, v)
							}
						}
						if math.IsNaN(pref[k]) || math.IsInf(pref[k], 0) {
							t.Fatalf("batch %d l=%d padding lane %d: pref %v", bi, l, k, pref[k])
						}
						continue
					}
					q := kb.p[k]
					dq := [3]float64{kb.x[k] - c[0], kb.y[k] - c[1], kb.z[k] - c[2]}
					for a := range dq {
						if d[a][k] != dq[a] {
							t.Fatalf("batch %d lane %d: d[%d] = %v, want %v", bi, k, a, d[a][k], dq[a])
						}
					}
					if wp := math.Sqrt(1 / (p + q)); math.Abs(pref[k]-wp) > 1e-15*wp {
						t.Fatalf("batch %d lane %d: pref %v, want %v", bi, k, pref[k], wp)
					}
					alpha := p * q / (p + q)
					tv := alpha * (dq[0]*dq[0] + dq[1]*dq[1] + dq[2]*dq[2])
					Boys(l, tv, want)
					pow := 1.0
					for n := 0; n <= l; n++ {
						w := want[n] * pow
						if got := fn[4*n+k]; !(math.Abs(got-w) <= 1e-13*math.Abs(w)) {
							t.Fatalf("batch %d lane %d (T = %v) l=%d: fn[%d] = %v, want F_%d (-2 alpha)^%d = %v", bi, k, tv, l, n, got, n, n, w)
						}
						pow *= -2 * alpha
					}
				}
			}
		}
	})
}

// TestLaneSetupStaysInTable: the assembly reads each lane's table row
// from its T, so no T — NaN, infinite, negative, far past the grid — may
// load outside the table (the pure-Go body is bounds-checked). What such a
// lane holds afterwards is unspecified; that the call returns is the test.
func TestLaneSetupStaysInTable(t *testing.T) {
	if lanes.name == goLanes.name {
		t.Skip("this CPU runs the pure-Go body only")
	}
	table := boysTableReady()
	c := [3]float64{0, 0, 0}
	fn := make([]float64, 4*(maxBoysOrder+1))
	for _, kb := range []primBatch{
		{p: [4]float64{math.NaN(), -0.5, math.Inf(1), 1}, x: [4]float64{1, 1e3, 1, math.Inf(-1)}, n: 4},
		{p: [4]float64{1, 1, 1, 1}, x: [4]float64{1e150, -1e150, math.NaN(), 1e5}, n: 4},
		{p: [4]float64{-1, -1e300, 1e300, 0}, y: [4]float64{3, 3, 3, 3}, n: 4},
	} {
		for l := 0; l <= maxBoysOrder; l++ {
			var d [4][4]float64
			var pref [4]float64
			lanes.setup(fn[:4*(l+1)], l, 0.8, &c, &kb, &d, &pref, table)
		}
	}
}

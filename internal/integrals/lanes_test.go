package integrals

import (
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

// The assembly body reads rStep and laneTerm at fixed offsets.
func TestLaneLayout(t *testing.T) {
	var st rStep
	var lt laneTerm
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
	} {
		if c.got != c.want {
			t.Errorf("%s at %d, the assembly reads it at %d", c.name, c.got, c.want)
		}
	}
}

package integrals

var fmaLanes = laneBody{name: "fma", recur: recur4FMA, fold: fold4FMA, sum: sum4AVX, contract: contractFMA}

func init() {
	if hasFMA() {
		lanes = fmaLanes
	}
}

// hasFMA reports whether the CPU and the OS support AVX and FMA3.
func hasFMA() bool

// The assembly reads rStep and laneTerm at fixed offsets
// (TestLaneLayout).

//go:noescape
func recur4FMA(r0, r1, fn []float64, steps []rStep, count []int, l int, d *[4][4]float64)

//go:noescape
func fold4FMA(k []float64, ncd int, r []float64, boff []uint16, terms []laneTerm, pref *[4]float64)

//go:noescape
func sum4AVX(k, k4 []float64)

//go:noescape
func contractFMA(blk, k []float64, ncd int, terms []laneTerm, lane int, sign []float64)

// Command calibrate measures this machine's shell-quartet ERI costs for
// the carbon 6-31G(d) shell classes (S: 6 primitives, L: 3, D: 1) through
// the production kernel (integrals.PairCache) and prints the symmetrized
// bra/ket pair-class matrix, normalised to (SS|SS), beside the ratios the
// simulator's cost model carries (internal/simulate.QuartetRatios).
// Only the ratios matter to the model (DESIGN.md section 5).
package main

import (
	"flag"
	"fmt"
	"math"
	"time"

	"repro/internal/basis"
	"repro/internal/integrals"
	"repro/internal/molecule"
	"repro/internal/simulate"
)

func main() {
	reps := flag.Int("reps", 200, "evaluations per timed batch (the fastest of 9 batches is reported: the host's bursts only ever add)")
	flag.Parse()

	// Two carbons at the graphene bond length; shells 0..3 on atom 0
	// (S, L, L', D) and 4..7 on atom 1.
	m := &molecule.Molecule{Name: "C2"}
	m.AddAtomAngstrom("C", 0, 0, 0)
	m.AddAtomAngstrom("C", 0, 0, molecule.CCBond)
	b, err := basis.Build(m, "6-31g(d)")
	if err != nil {
		panic(err)
	}
	pc := integrals.NewPairCache(integrals.NewEngine(b), 0)

	classRep := map[simulate.ShellClass]int{
		simulate.ClassS: 0, // 6-primitive core S
		simulate.ClassL: 1, // 3-primitive valence L
		simulate.ClassD: 3, // D polarization
	}
	classes := []simulate.ShellClass{simulate.ClassS, simulate.ClassL, simulate.ClassD}
	names := map[simulate.ShellClass]string{
		simulate.ClassS: "S", simulate.ClassL: "L", simulate.ClassD: "D",
	}

	// Accumulate measurements per (bra pair class, ket pair class).
	var sum [simulate.NumPairClasses][simulate.NumPairClasses]float64
	var cnt [simulate.NumPairClasses][simulate.NumPairClasses]int
	var buf []float64
	// Spin the core up first: (SS|SS), the normaliser, is measured first.
	for t0 := time.Now(); time.Since(t0) < 500*time.Millisecond; {
		buf = pc.ShellQuartet(7, 3, 7, 3, buf)
	}
	for _, c1 := range classes {
		for _, c2 := range classes {
			for _, c3 := range classes {
				for _, c4 := range classes {
					// Two-center pairs in the cache's canonical order i >= j,
					// k >= l: the first shell of each pair sits on atom 1.
					i, j := classRep[c1]+4, classRep[c2]
					k, l := classRep[c3]+4, classRep[c4]
					dt := math.Inf(1)
					for batch := 0; batch < 9; batch++ {
						t0 := time.Now()
						for r := 0; r < *reps; r++ {
							buf = pc.ShellQuartet(i, j, k, l, buf)
						}
						dt = math.Min(dt, time.Since(t0).Seconds()/float64(*reps))
					}
					bra := simulate.PairClassOf(c1, c2)
					ket := simulate.PairClassOf(c3, c4)
					sum[bra][ket] += dt
					cnt[bra][ket]++
					fmt.Printf("(%s%s|%s%s)  %9.2f us\n", names[c1], names[c2], names[c3], names[c4], dt*1e6)
				}
			}
		}
	}
	var measured [simulate.NumPairClasses][simulate.NumPairClasses]float64
	for i := range measured {
		for j := range measured[i] {
			measured[i][j] = (sum[i][j]/float64(cnt[i][j]) + sum[j][i]/float64(cnt[j][i])) / 2
		}
	}
	model := simulate.QuartetRatios
	fmt.Println("\nSymmetrized pair-class matrix, rows/cols SS LS LL DS DL DD.")
	fmt.Printf("Measured (SS|SS) = %.2f us.\n", measured[0][0]*1e6)
	fmt.Println("measured / (SS|SS)                          | QuartetRatios / (SS|SS)")
	for i := range measured {
		for j := range measured[i] {
			fmt.Printf(" %6.2f", measured[i][j]/measured[0][0])
		}
		fmt.Print("  |")
		for j := range model[i] {
			fmt.Printf(" %6.2f", model[i][j]/model[0][0])
		}
		fmt.Println()
	}
}

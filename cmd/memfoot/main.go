// Command memfoot prints the memory-footprint model (eqs. 3a-3c) for a
// custom basis size. The paper's own systems are Table 2:
// `scaling -exp table2`.
//
//	memfoot -nbf 10000 -ranks 64 -threads 16
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/distmat"
	"repro/internal/simulate"
)

func main() {
	var (
		nbf     = flag.Int("nbf", 0, "basis-function count (required; the paper's systems are 'scaling -exp table2')")
		ranks   = flag.Int("ranks", 256, "MPI-only ranks per node for the custom row")
		threads = flag.Int("threads", 64, "threads per rank for the hybrid rows")
	)
	flag.Parse()

	if *nbf < 1 || *ranks < 1 {
		fmt.Fprintf(os.Stderr, "memfoot: -nbf and -ranks must be >= 1 (got -nbf %d -ranks %d); "+
			"Table 2 of the paper is `scaling -exp table2`\n", *nbf, *ranks)
		flag.Usage()
		os.Exit(2)
	}
	const gb = float64(1 << 30)
	mpi := int64(*ranks) * simulate.RankBytes(simulate.AlgMPIOnly, *nbf, 1)
	pr := 4 * simulate.RankBytes(simulate.AlgPrivateFock, *nbf, *threads)
	sh := 4 * simulate.RankBytes(simulate.AlgSharedFock, *nbf, *threads)
	fmt.Printf("N = %d basis functions\n", *nbf)
	fmt.Printf("  mpi-only     (%3d ranks/node):          %10.2f GB/node\n", *ranks, float64(mpi)/gb)
	fmt.Printf("  private-fock (4 ranks x %2d threads):    %10.2f GB/node\n", *threads, float64(pr)/gb)
	fmt.Printf("  shared-fock  (4 ranks):                 %10.2f GB/node\n", float64(sh)/gb)
	fmt.Printf("  shared-fock FI/FJ buffers:              %10.2f GB/node\n",
		4*float64(simulate.BufferBytes(*nbf, 6, *threads))/gb)
	pr2, pc := distmat.Factor2D(*ranks)
	fmt.Printf("  distributed  (%dx%d tile grid):          %10.4f GB/rank\n",
		pr2, pc, float64(distmat.FootprintPerRank(*nbf, *ranks))/gb)
	parity, data := distmat.ABFTBytesPerRank(*nbf, *ranks, 0)
	fmt.Printf("  ABFT checksum tiles:                    %10.4f GB/rank (%.1f%% of %.4f GB tile data)\n",
		float64(parity)/gb, 100*float64(parity)/float64(data), float64(data)/gb)
}

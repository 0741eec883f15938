package knl

import (
	"testing"
	"testing/quick"
)

func TestNodeSpecs(t *testing.T) {
	for _, n := range []Node{Phi7210(), Phi7230()} {
		if n.Cores != 64 || n.HTPerCore != 4 || n.HWThreads() != 256 {
			t.Fatalf("core counts wrong: %+v", n)
		}
		if n.MCDRAMBytes != 16<<30 || n.DDRBytes != 192<<30 {
			t.Fatalf("memory sizes wrong: %+v", n)
		}
		if n.ClusterModeUsed != Quadrant || n.MemoryModeUsed != CacheMode {
			t.Fatal("default modes should be quad-cache (the paper's choice)")
		}
	}
}

func TestPerCoreThroughputShape(t *testing.T) {
	// The paper: biggest gain at 2 threads/core, diminishing at 3-4.
	if perCoreThroughput(1) != 1.0 {
		t.Fatal("single thread must normalize to 1")
	}
	gain2 := perCoreThroughput(2) - perCoreThroughput(1)
	gain3 := perCoreThroughput(3) - perCoreThroughput(2)
	gain4 := perCoreThroughput(4) - perCoreThroughput(3)
	if !(gain2 > gain3 && gain3 >= gain4 && gain4 >= 0) {
		t.Fatalf("thread gains not diminishing: %v %v %v", gain2, gain3, gain4)
	}
}

func TestPlacement(t *testing.T) {
	n := Phi7210()
	// Compact packs 4/core.
	p := n.Place(8, Compact)
	if p.CoresUsed != 2 || p.ThreadsPerCore != 4 {
		t.Fatalf("compact 8: %+v", p)
	}
	// Scatter spreads 1/core.
	p = n.Place(8, Scatter)
	if p.CoresUsed != 8 || p.ThreadsPerCore != 1 {
		t.Fatalf("scatter 8: %+v", p)
	}
	// Beyond 64, scatter wraps to 2/core.
	p = n.Place(128, Scatter)
	if p.CoresUsed != 64 || p.ThreadsPerCore != 2 {
		t.Fatalf("scatter 128: %+v", p)
	}
	// Full node: all policies coincide.
	for _, aff := range Affinities {
		p = n.Place(256, aff)
		if p.CoresUsed != 64 || p.ThreadsPerCore != 4 {
			t.Fatalf("%s 256: %+v", aff, p)
		}
	}
	// Over-subscription clamps.
	p = n.Place(1000, Compact)
	if p.CoresUsed != 64 {
		t.Fatalf("oversubscribed: %+v", p)
	}
	if n.Place(0, Compact).CoresUsed != 0 {
		t.Fatal("zero threads should give zero placement")
	}
}

func TestComputeCapacityOrdering(t *testing.T) {
	n := Phi7210()
	// At 64 threads, scatter (64 cores x 1) beats compact (16 cores x 4).
	if n.ComputeCapacity(64, Scatter) <= n.ComputeCapacity(64, Compact) {
		t.Fatal("scatter should beat compact at partial occupancy")
	}
	// Unpinned always loses to balanced.
	if n.ComputeCapacity(64, NoPin) >= n.ComputeCapacity(64, Balanced) {
		t.Fatal("unpinned should lose to balanced")
	}
	// More threads never reduce capacity (same policy).
	f := func(a, b uint8) bool {
		x, y := int(a)+1, int(b)+1
		if x > y {
			x, y = y, x
		}
		return n.ComputeCapacity(x, Balanced) <= n.ComputeCapacity(y, Balanced)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryPenalty(t *testing.T) {
	n := Phi7210() // cache mode
	small := int64(4) << 30
	big := int64(160) << 30
	if p := n.MemoryPenalty(small, 0.4); p > 1.05 {
		t.Fatalf("MCDRAM-resident penalty = %v", p)
	}
	pBig := n.MemoryPenalty(big, 0.4)
	if pBig <= 1.1 {
		t.Fatalf("DDR-spilling penalty = %v, too mild", pBig)
	}
	// Flat-DDR is the worst case.
	ddr := n.WithModes(Quadrant, FlatDDR)
	if ddr.MemoryPenalty(small, 0.4) <= 1.1 {
		t.Fatal("flat-DDR should be slow even for small sets")
	}
	// Flat-MCDRAM is ideal when it fits, degrades when it spills.
	mc := n.WithModes(Quadrant, FlatMCDRAM)
	if mc.MemoryPenalty(small, 0.4) != 1 {
		t.Fatal("flat-MCDRAM should be ideal when the set fits")
	}
	if mc.MemoryPenalty(big, 0.4) <= 1.1 {
		t.Fatal("flat-MCDRAM should degrade when spilling")
	}
	// Penalty grows monotonically with working set in cache mode.
	prev := 0.0
	for gb := int64(1); gb <= 256; gb *= 2 {
		p := n.MemoryPenalty(gb<<30, 0.4)
		if p < prev-1e-12 {
			t.Fatalf("cache-mode penalty not monotone at %d GB", gb)
		}
		prev = p
	}
}

func TestFits(t *testing.T) {
	n := Phi7210()
	if !n.Fits(100<<30) || n.Fits(200<<30) {
		t.Fatal("cache-mode capacity check wrong (DDR only)")
	}
	flat := n.WithModes(Quadrant, FlatMCDRAM)
	if !flat.Fits(200 << 30) {
		t.Fatal("flat mode exposes DDR+MCDRAM = 208 GB")
	}
	if flat.Fits(209 << 30) {
		t.Fatal("flat mode capacity exceeded")
	}
}

func TestClusterPenalties(t *testing.T) {
	quad := Phi7210()
	c, s, y := quad.ClusterPenalties()
	if c != 1 || s != 1 || y != 1 {
		t.Fatal("quadrant must be the baseline")
	}
	a2a := quad.WithModes(AllToAll, CacheMode)
	c2, s2, y2 := a2a.ClusterPenalties()
	if !(c2 > 1 && s2 > 1 && y2 > 1) {
		t.Fatal("all-to-all must penalize every component")
	}
	if s2 <= y2 || s2 <= c2 {
		t.Fatal("all-to-all should hurt shared traffic the most")
	}
	snc := quad.WithModes(SNC4, CacheMode)
	c3, s3, _ := snc.ClusterPenalties()
	if c3 >= c2 || s3 >= s2 {
		t.Fatal("SNC-4 should be milder than all-to-all")
	}
}

func TestWithModesAndString(t *testing.T) {
	n := Phi7230().WithModes(SNC4, FlatDDR)
	if n.ClusterModeUsed != SNC4 || n.MemoryModeUsed != FlatDDR {
		t.Fatal("WithModes did not apply")
	}
	if n.String() == "" {
		t.Fatal("empty String()")
	}
}

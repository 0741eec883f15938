package ddi

import (
	"sync/atomic"
	"testing"

	"repro/internal/mpi"
)

func TestDLBNextUnique(t *testing.T) {
	const size, per = 6, 50
	claimed := make([]atomic.Int64, size*per)
	err := mpi.Run(size, func(c *mpi.Comm) {
		d := New(c)
		d.DLBReset()
		for i := 0; i < per; i++ {
			claimed[d.DLBNext()].Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range claimed {
		if claimed[i].Load() != 1 {
			t.Fatalf("index %d claimed %d times", i, claimed[i].Load())
		}
	}
}

func TestDLBResetStartsNewCycle(t *testing.T) {
	err := mpi.Run(4, func(c *mpi.Comm) {
		d := New(c)
		d.DLBReset()
		// Drain a few indices in cycle 1.
		for i := 0; i < 3; i++ {
			d.DLBNext()
		}
		d.DLBReset()
		// Collect each rank's first index of cycle 2; the minimum across
		// ranks (the max of the negated indices) must be 0: counter
		// restarted.
		mine := []float64{-float64(d.DLBNext())}
		c.Allreduce(mpi.Max, mine, mine)
		if mine[0] != 0 {
			t.Errorf("cycle 2 min index = %v, want 0", -mine[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDLBManyEpochs(t *testing.T) {
	// Exercise epoch slot wrap-around (> 32 cycles).
	err := mpi.Run(2, func(c *mpi.Comm) {
		d := New(c)
		for e := 0; e < 40; e++ {
			d.DLBReset()
			mine := []float64{-float64(d.DLBNext())}
			c.Allreduce(mpi.Max, mine, mine)
			if mine[0] != 0 {
				t.Errorf("epoch %d: min first index = %v", e, -mine[0])
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGSumF(t *testing.T) {
	err := mpi.Run(5, func(c *mpi.Comm) {
		d := New(c)
		buf := []float64{1, float64(c.Rank())}
		d.GSumF(buf)
		if buf[0] != 5 || buf[1] != 10 {
			t.Errorf("GSumF = %v", buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGSumI(t *testing.T) {
	err := mpi.Run(3, func(c *mpi.Comm) {
		d := New(c)
		if got := d.GSumI(int64(c.Rank() + 1)); got != 6 {
			t.Errorf("GSumI = %d", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

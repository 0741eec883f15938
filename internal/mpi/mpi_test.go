package mpi

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
)

func TestRunSizeValidation(t *testing.T) {
	if err := Run(0, func(c *Comm) {}); err == nil {
		t.Fatal("expected error for size 0")
	}
	if err := Run(-3, func(c *Comm) {}); err == nil {
		t.Fatal("expected error for negative size")
	}
}

func TestRankAndSize(t *testing.T) {
	var seen [5]atomic.Bool
	err := Run(5, func(c *Comm) {
		if c.Size() != 5 {
			t.Errorf("size = %d", c.Size())
		}
		seen[c.Rank()].Store(true)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range seen {
		if !seen[r].Load() {
			t.Fatalf("rank %d never ran", r)
		}
	}
}

func TestSendRecvBasic(t *testing.T) {
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			data, src, tag := c.Recv(0, 7)
			if src != 0 || tag != 7 || len(data) != 3 || data[2] != 3 {
				t.Errorf("got %v src=%d tag=%d", data, src, tag)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{1}
			c.Send(1, 0, buf)
			buf[0] = 99 // must not affect the receiver
			c.Barrier()
		} else {
			c.Barrier()
			data, _, _ := c.Recv(0, 0)
			if data[0] != 1 {
				t.Errorf("send did not copy: %v", data)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvWildcards(t *testing.T) {
	err := Run(3, func(c *Comm) {
		switch c.Rank() {
		case 0:
			got := map[int]bool{}
			for i := 0; i < 2; i++ {
				data, src, _ := c.Recv(AnySource, AnyTag)
				got[src] = true
				if data[0] != float64(src) {
					t.Errorf("payload mismatch from %d: %v", src, data)
				}
			}
			if !got[1] || !got[2] {
				t.Errorf("missing sources: %v", got)
			}
		default:
			c.Send(0, c.Rank()+10, []float64{float64(c.Rank())})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTagSelectivity(t *testing.T) {
	// Messages with different tags must be matched by tag even when they
	// arrive out of request order.
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, []float64{5})
			c.Send(1, 6, []float64{6})
		} else {
			// Ask for tag 6 first.
			d6, _, _ := c.Recv(0, 6)
			d5, _, _ := c.Recv(0, 5)
			if d6[0] != 6 || d5[0] != 5 {
				t.Errorf("tag matching broken: %v %v", d5, d6)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	var phase atomic.Int64
	err := Run(8, func(c *Comm) {
		phase.Add(1)
		c.Barrier()
		if phase.Load() != 8 {
			t.Errorf("barrier released before all ranks arrived: %d", phase.Load())
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastVariousRootsAndSizes(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 7, 8, 13} {
		for root := 0; root < size; root += 2 {
			err := Run(size, func(c *Comm) {
				buf := make([]float64, 4)
				if c.Rank() == root {
					for i := range buf {
						buf[i] = float64(10*root + i)
					}
				}
				c.Bcast(root, buf)
				for i := range buf {
					if buf[i] != float64(10*root+i) {
						t.Errorf("size=%d root=%d rank=%d: buf=%v", size, root, c.Rank(), buf)
						return
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, size := range []int{1, 2, 5, 8, 9} {
		err := Run(size, func(c *Comm) {
			in := []float64{float64(c.Rank()), 1}
			out := make([]float64, 2)
			c.Reduce(0, Sum, in, out)
			if c.Rank() == 0 {
				wantSum := float64(size*(size-1)) / 2
				if out[0] != wantSum || out[1] != float64(size) {
					t.Errorf("size=%d: reduce = %v", size, out)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestReduceMax(t *testing.T) {
	err := Run(6, func(c *Comm) {
		in := []float64{float64(c.Rank())}
		outMax := make([]float64, 1)
		c.Reduce(2, Max, in, outMax)
		if c.Rank() == 2 {
			if outMax[0] != 5 {
				t.Errorf("max=%v", outMax)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduce(t *testing.T) {
	for _, size := range []int{1, 3, 4, 10} {
		err := Run(size, func(c *Comm) {
			buf := []float64{1, float64(c.Rank())}
			c.AllreduceSumInPlace(buf)
			wantSum := float64(size*(size-1)) / 2
			if buf[0] != float64(size) || buf[1] != wantSum {
				t.Errorf("size=%d rank=%d: %v", size, c.Rank(), buf)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllreduceRepeatedNoCrossTalk(t *testing.T) {
	// Successive collectives must not cross-match messages.
	err := Run(4, func(c *Comm) {
		for iter := 0; iter < 20; iter++ {
			buf := []float64{float64(iter)}
			c.AllreduceSumInPlace(buf)
			if buf[0] != float64(4*iter) {
				t.Errorf("iter %d: got %v", iter, buf[0])
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFetchAddSharedCounter(t *testing.T) {
	const size, grabs = 8, 100
	counts := make([]atomic.Int64, size*grabs)
	err := Run(size, func(c *Comm) {
		dlb := c.WinCreate(0, 1)
		for i := 0; i < grabs; i++ {
			v := dlb.FetchAdd(0, 1)
			counts[v].Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if counts[i].Load() != 1 {
			t.Fatalf("counter value %d claimed %d times", i, counts[i].Load())
		}
	}
}

func TestCounterStoreLoad(t *testing.T) {
	err := Run(2, func(c *Comm) {
		w := c.WinCreate(0, 4)
		if c.Rank() == 0 {
			w.Store(3, 123)
		}
		c.Barrier()
		if got := w.Load(3); got != 123 {
			t.Errorf("Load = %d", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPanicPropagation(t *testing.T) {
	err := Run(4, func(c *Comm) {
		if c.Rank() == 2 {
			panic("deliberate failure")
		}
		// Other ranks block in a barrier; the poison must release them.
		defer func() { recover() }()
		c.Barrier()
	})
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("expected propagated panic, got %v", err)
	}
}

func TestAllreduceLargeBuffer(t *testing.T) {
	// Fock-matrix sized reduction (packed triangular of N=60 -> 1830).
	n := 1830
	err := Run(4, func(c *Comm) {
		buf := make([]float64, n)
		for i := range buf {
			buf[i] = float64(c.Rank()+1) * float64(i)
		}
		c.AllreduceSumInPlace(buf)
		for i := range buf {
			want := 10.0 * float64(i) // (1+2+3+4) * i
			if math.Abs(buf[i]-want) > 1e-12 {
				t.Errorf("buf[%d] = %v want %v", i, buf[i], want)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

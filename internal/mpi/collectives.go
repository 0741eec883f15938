package mpi

// Collectives are implemented over the point-to-point layer with binomial
// trees (Bcast, Reduce) and reduce+broadcast (Allreduce), the same
// structure real MPI libraries use at these scales. Each collective call
// consumes a per-rank sequence number folded into an internal tag so that
// back-to-back collectives cannot cross-match; all ranks must call
// collectives in the same order (standard MPI semantics).

import "repro/internal/telemetry"

// Op is a reduction operator.
type Op int

// Supported reduction operators.
const (
	Sum Op = iota
	Max
)

func (o Op) apply(dst, src []float64) {
	switch o {
	case Sum:
		for i, v := range src {
			dst[i] += v
		}
	case Max:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	}
}

// nextCollTag returns the internal tag for this rank's next collective.
func (c *Comm) nextCollTag() int {
	seq := c.world.collSeq[c.rank].Add(1)
	return internalTagBase + int(seq%(1<<20))
}

// collOp opens the telemetry span of one call of collective op and
// records its payload size; End closes it. Point-to-point spans emitted
// by the collective's internal sends/recvs nest inside it.
func (c *Comm) collOp(op *collective, floats int) telemetry.Span {
	op.bytes.Observe(int64(8 * floats))
	return c.world.telemetry.Start("mpi.op", op.name, c.rank, 0, op.ns)
}

// relRank maps a rank into the tree rooted at root.
func relRank(rank, root, size int) int { return (rank - root + size) % size }

func absRank(rel, root, size int) int { return (rel + root) % size }

// Bcast broadcasts buf from root to every rank (in place) via a binomial
// tree.
func (c *Comm) Bcast(root int, buf []float64) {
	c.checkPeer(root)
	defer c.collOp(&c.world.met.bcast, len(buf)).End(nil)
	tag := c.nextCollTag()
	rel := relRank(c.rank, root, c.size)
	// Receive from parent (clear lowest set bit).
	if rel != 0 {
		parent := absRank(rel&(rel-1), root, c.size)
		data, _, _ := c.Recv(parent, tag)
		copy(buf, data)
	}
	// Forward to children: set bits above the lowest set bit.
	for bit := 1; bit < c.size; bit <<= 1 {
		if rel&(bit-1) == 0 && rel&bit == 0 {
			child := rel | bit
			if child < c.size {
				c.send(absRank(child, root, c.size), tag, buf)
			}
		} else {
			break
		}
	}
}

// Reduce combines buf across ranks with op into out on root; out is only
// written on root (it may be nil elsewhere, and may alias buf). buf is
// not modified unless out aliases it. The root accumulates into out, an
// inner node of the tree into a copy of buf, and a leaf sends buf as it
// is (send copies the payload).
func (c *Comm) Reduce(root int, op Op, buf []float64, out []float64) {
	c.checkPeer(root)
	defer c.collOp(&c.world.met.reduce, len(buf)).End(nil)
	tag := c.nextCollTag()
	rel := relRank(c.rank, root, c.size)
	acc, owned := buf, rel == 0
	if owned {
		acc = out[:len(buf)]
		copy(acc, buf)
	}
	// Gather partial sums from children (binomial tree, deepest first).
	for bit := 1; bit < c.size; bit <<= 1 {
		if rel&bit != 0 {
			// Send accumulated value to parent and stop.
			parent := absRank(rel&^bit, root, c.size)
			c.send(parent, tag, acc)
			return
		}
		child := rel | bit
		if child < c.size {
			data, _, _ := c.Recv(absRank(child, root, c.size), tag)
			if !owned {
				acc, owned = append([]float64(nil), buf...), true
			}
			op.apply(acc, data)
		}
	}
}

// Allreduce combines buf across all ranks with op; every rank receives the
// result in out (which may alias buf).
func (c *Comm) Allreduce(op Op, buf []float64, out []float64) {
	defer c.collOp(&c.world.met.allreduce, len(buf)).End(nil)
	c.Reduce(0, op, buf, out)
	c.Bcast(0, out[:len(buf)])
}

// AllreduceSumInPlace is the gsumf shape: sums buf across ranks in place.
func (c *Comm) AllreduceSumInPlace(buf []float64) {
	c.Allreduce(Sum, buf, buf)
}

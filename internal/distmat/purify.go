package distmat

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// SP2 purification (Niklasson's second-order spectral projection): map
// the orthonormal-basis Fock F' onto X0 = (eps_max*I - F') / (eps_max -
// eps_min) using Gershgorin bounds, so X0's spectrum lies in [0, 1] with
// occupied states above the gap. Each sweep squares X; X^2 sharpens the
// spectrum toward {0, 1}, and the branch choice
//
//	X <- X^2        (lowers the trace)   if |tr X^2 - nocc| <= |2 tr X - tr X^2 - nocc|
//	X <- 2X - X^2   (raises the trace)   otherwise
//
// steers tr X to the occupation count without knowing the chemical
// potential. At convergence X is the idempotent projector onto the nocc
// lowest orbitals and D' = 2X is the closed-shell orthonormal density.
//
// Stopping criterion: ||X - X^2||_F <= tol (idempotency) AND
// |tr X - nocc| <= traceTol. Both are invariants checked EVERY sweep;
// a non-finite trace aborts immediately (a corrupted tile poisons the
// whole sweep, better surfaced than iterated on).

// PurifyStats reports one purification run.
type PurifyStats struct {
	Sweeps    int
	IdemErr   float64 // final ||X - X^2||_F
	TraceErr  float64 // final |tr X - nocc|
	Converged bool
	// Branches records the branch executed at each sweep that took one:
	// 'S' for X <- X^2, 'R' for X <- 2X - X^2. The decisions depend only
	// on deterministic allreduced traces, so the string must be
	// bit-for-bit identical across ranks and across reruns — the
	// determinism invariant the chaos property test pins down.
	Branches string
}

// purifyTraceTol bounds the trace drift accepted at convergence; the
// idempotency tolerance is the caller's knob.
const purifyTraceTol = 1e-8

// Purify runs SP2 on the orthonormal Fock fp, writing the orthonormal
// closed-shell density D' = 2X into dst. xsq is caller-provided scratch
// of the same shape (reused across SCF iterations to keep the working
// set fixed). Only fp's lower triangle is read: mirrored onto the upper
// one it makes X exactly symmetric, which Square needs, even when the
// products that formed F' rounded its two triangles apart. Collective;
// the branch decisions depend only on deterministic allreduced traces,
// so every rank takes the same path.
func Purify(dst, fp, xsq *BlockMat, nocc int, tol float64, maxSweeps int) (PurifyStats, error) {
	dst.sameShape(fp)
	dst.sameShape(xsq)
	if tol <= 0 {
		tol = 1e-12
	}
	if maxSweeps <= 0 {
		maxSweeps = 100
	}
	var st PurifyStats

	copyLower(dst, fp)
	lo, hi := Gershgorin(dst)
	if hi-lo < 1e-300 {
		hi = lo + 1 // degenerate spectrum: any scaling works
	}
	// X0 = (hi*I - F') / (hi - lo)
	Scale(dst, -1/(hi-lo))
	AddScaledIdentity(dst, hi/(hi-lo))

	tel := dst.Dx.Comm.Telemetry()
	occ := float64(nocc)
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		st.Sweeps = sweep
		tel.Counter("distmat.purify.sweeps").Add(1)
		if dst.ABFT() {
			// Give the fault plan its shot at resident tile memory (and
			// at killing a rank mid-purification), then audit: a landed
			// bit flip must be caught and repaired before it propagates
			// through the squaring.
			dst.injectResidentSDC()
			if _, aerr := dst.AuditParity(); aerr != nil {
				return st, fmt.Errorf("distmat: purification sweep %d: %w", sweep, aerr)
			}
		}
		Square(xsq, dst)
		t, ts, idemSq := sweepSums(dst, xsq)
		if !isFinite(t) || !isFinite(ts) {
			return st, fmt.Errorf("distmat: purification sweep %d produced a non-finite trace (tr X = %g, tr X^2 = %g)", sweep, t, ts)
		}
		st.IdemErr = math.Sqrt(idemSq)
		st.TraceErr = math.Abs(t - occ)
		if st.IdemErr <= tol && st.TraceErr <= purifyTraceTol {
			st.Converged = true
			break
		}
		if math.Abs(ts-occ) <= math.Abs(2*t-ts-occ) {
			st.Branches += "S"
			Copy(dst, xsq) // X <- X^2
		} else {
			st.Branches += "R"
			Axpby(dst, xsq, -1, 2) // X <- 2X - X^2
		}
	}
	if !st.Converged {
		return st, fmt.Errorf("distmat: purification did not converge in %d sweeps (idempotency %.3e, trace error %.3e)",
			maxSweeps, st.IdemErr, st.TraceErr)
	}
	Scale(dst, 2) // D' = 2X (closed shell)
	return st, nil
}

// copyLower sets dst to src with src's lower triangle mirrored onto the
// upper one: exactly symmetric whatever src's upper triangle holds. Each
// owner reads the lower tile it needs and writes only its own tiles.
func copyLower(dst, src *BlockMat) {
	dst.sameShape(src)
	dst.Dx.Comm.Barrier()
	bs := dst.BS
	buf := make([]float64, bs*bs)
	out := make([]float64, bs*bs)
	dst.forOwned(func(bi, bj int) {
		t := src.readTile(max(bi, bj), min(bi, bj), buf)
		for r := 0; r < bs; r++ {
			for c := 0; c < bs; c++ {
				if bi < bj || bi == bj && r < c {
					out[r*bs+c] = t[c*bs+r]
				} else {
					out[r*bs+c] = t[r*bs+c]
				}
			}
		}
		dst.PutTile(bi, bj, out)
	})
	dst.Dx.Comm.Barrier()
}

// sweepSums returns tr X, tr X^2 and ||X - X^2||_F^2 from one read of the
// owned tiles and one global sum. Each partial adds its terms in the order
// a trace or FrobSqDiff pass would (less the padding's zeros): same bits.
func sweepSums(x, xsq *BlockMat) (t, ts, idemSq float64) {
	bs := x.BS
	x.forOwned(func(bi, bj int) {
		xt, st := x.readTile(bi, bj, nil), xsq.readTile(bi, bj, nil)
		sq := idemSq
		for r := 0; r < x.live(bi); r++ {
			if bi == bj {
				t += xt[r*bs+r]
				ts += st[r*bs+r]
			}
			row := st[r*bs : r*bs+x.live(bj)]
			for c, v := range xt[r*bs : r*bs+len(row)] {
				d := v - row[c]
				sq += d * d
			}
		}
		idemSq = sq
	})
	v := []float64{t, ts, idemSq}
	x.Dx.GSumF(v)
	x.Dx.Comm.Barrier()
	return v[0], v[1], v[2]
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// SP2Dense is the replicated reference implementation of the identical
// algorithm (same initial map, branch rule and stopping criterion) on a
// dense matrix — the oracle for the distributed path's tests and the
// eigensolve-vs-purification benchmark. Returns D' = 2X.
func SP2Dense(fp *linalg.Matrix, nocc int, tol float64, maxSweeps int) (*linalg.Matrix, PurifyStats, error) {
	if tol <= 0 {
		tol = 1e-12
	}
	if maxSweeps <= 0 {
		maxSweeps = 100
	}
	n := fp.Rows
	var st PurifyStats

	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		r := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				r += math.Abs(fp.At(i, j))
			}
		}
		d := fp.At(i, i)
		lo = math.Min(lo, d-r)
		hi = math.Max(hi, d+r)
	}
	if hi-lo < 1e-300 {
		hi = lo + 1
	}
	x := linalg.NewSquare(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := -fp.At(i, j) / (hi - lo)
			if i == j {
				v += hi / (hi - lo)
			}
			x.Set(i, j, v)
		}
	}

	xsq := linalg.NewSquare(n)
	occ := float64(nocc)
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		st.Sweeps = sweep
		linalg.MulInto(xsq, x, x)
		t, ts := x.Trace(), xsq.Trace()
		if !isFinite(t) || !isFinite(ts) {
			return nil, st, fmt.Errorf("distmat: dense purification sweep %d produced a non-finite trace", sweep)
		}
		idemSq := 0.0
		for i, v := range x.Data {
			d := v - xsq.Data[i]
			idemSq += d * d
		}
		st.IdemErr = math.Sqrt(idemSq)
		st.TraceErr = math.Abs(t - occ)
		if st.IdemErr <= tol && st.TraceErr <= purifyTraceTol {
			st.Converged = true
			break
		}
		if math.Abs(ts-occ) <= math.Abs(2*t-ts-occ) {
			st.Branches += "S"
			x, xsq = xsq, x
		} else {
			st.Branches += "R"
			for i := range x.Data {
				x.Data[i] = 2*x.Data[i] - xsq.Data[i]
			}
		}
	}
	if !st.Converged {
		return nil, st, fmt.Errorf("distmat: dense purification did not converge in %d sweeps (idempotency %.3e, trace error %.3e)",
			maxSweeps, st.IdemErr, st.TraceErr)
	}
	x.Scale(2)
	return x, st, nil
}

package linalg

import "fmt"

// MulAdd computes c += a*b on row-major operands with leading dimensions:
// c is m x n with rows ldc apart, a is m x k (lda), b is k x n (ldb). It
// is the one matrix product; MulInto and distmat.MatMul call it. Every
// element of c is summed over k in order, one rounded multiply and one
// rounded add per term, so each body gives the scalar i-k-j loop's bits.
func MulAdd(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int) {
	if m < 0 || n < 0 || k < 0 || ldc < n || lda < k || ldb < n ||
		!holds(c, ldc, m, n) || !holds(a, lda, m, k) || !holds(b, ldb, k, n) {
		panic(fmt.Sprintf("linalg: MulAdd operands do not hold a %dx%dx%d product", m, n, k))
	}
	if m == 0 || n == 0 || k == 0 {
		return
	}
	mulAdd(c, ldc, a, lda, b, ldb, m, n, k)
}

// holds reports whether x has room for rows x cols with rows ld apart.
func holds(x []float64, ld, rows, cols int) bool {
	return rows == 0 || cols == 0 || len(x) >= (rows-1)*ld+cols
}

// mulAddFunc is the signature every MulAdd body shares.
type mulAddFunc func(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int)

// body is one MulAdd body under the name the tests select it by.
type body struct {
	name string
	f    mulAddFunc
}

// bodies lists the MulAdd bodies this host can run, narrowest first:
// mulAddGo everywhere, then on amd64 what the CPUID probe reports
// (gemm_amd64.go). Package init selects the last.
var bodies = []body{{"go", mulAddGo}}

// mulAdd is the body MulAdd runs, set once at package init to the
// widest of bodies. The tests flip it.
var mulAdd mulAddFunc = mulAddGo

// avxFMA and avx512 record the CPUID probe (set at package init on
// amd64): the CPU and the OS support AVX and FMA3, and AVX-512F with the
// opmask and ZMM state.
var avxFMA, avx512 bool

// HasAVXFMA reports whether the CPU and the OS support AVX and FMA3 — the
// probe the ymm kernels of this repository dispatch on.
func HasAVXFMA() bool { return avxFMA }

// HasAVX512 reports whether the CPU and the OS support AVX-512F — the
// probe the zmm kernels dispatch on. It implies HasAVXFMA.
func HasAVX512() bool { return avx512 }

// mulAddGo is the pure-Go body: the scalar i-k-j loop.
func mulAddGo(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int) {
	for i := 0; i < m; i++ {
		crow := c[i*ldc : i*ldc+n]
		for p, v := range a[i*lda : i*lda+k] {
			brow := b[p*ldb : p*ldb+n]
			for j := range crow {
				crow[j] += v * brow[j]
			}
		}
	}
}

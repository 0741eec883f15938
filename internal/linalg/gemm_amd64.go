package linalg

func init() {
	if avxFMA = hasAVXFMA(); avxFMA {
		bodies = append(bodies, body{"avx", mulAddAVX})
		if avx512 = hasAVX512(); avx512 {
			bodies = append(bodies, body{"avx512", mulAddAVX512})
		}
	}
	mulAdd = bodies[len(bodies)-1].f
}

// mulAddAVX512 runs the largest 8x16-divisible corner of c through the
// zmm kernel and the strips beside and below it through mulAddAVX. Each
// element of c is summed by one kernel, k in order.
func mulAddAVX512(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int) {
	m8, n16 := m&^7, n&^15
	if m8 == 0 || n16 == 0 {
		mulAddAVX(c, ldc, a, lda, b, ldb, m, n, k)
		return
	}
	gemm8x16AVX512(c, ldc, a, lda, b, ldb, m8, n16, k)
	if n16 < n {
		mulAddAVX(c[n16:], ldc, a, lda, b[n16:], ldb, m8, n-n16, k)
	}
	if m8 < m {
		mulAddAVX(c[m8*ldc:], ldc, a[m8*lda:], lda, b, ldb, m-m8, n, k)
	}
}

// mulAddAVX runs the largest 4x8-divisible corner of c through the ymm
// kernel and the edge rows and columns through the Go loop.
func mulAddAVX(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int) {
	m4, n8 := m&^3, n&^7
	if m4 > 0 && n8 > 0 {
		gemm4x8AVX(c, ldc, a, lda, b, ldb, m4, n8, k)
	}
	if n8 < n {
		mulAddGo(c[n8:], ldc, a, lda, b[n8:], ldb, m4, n-n8, k)
	}
	if m4 < m {
		mulAddGo(c[m4*ldc:], ldc, a[m4*lda:], lda, b, ldb, m-m4, n, k)
	}
}

// hasAVXFMA reports whether the CPU and the OS support AVX and FMA3.
func hasAVXFMA() bool

// hasAVX512 reports whether the CPU and the OS support AVX-512F; call it
// only after hasAVXFMA.
func hasAVX512() bool

// gemm4x8AVX adds a*b into c for m a multiple of 4, n of 8 and k > 0; the
// caller has checked the bounds.
//
//go:noescape
func gemm4x8AVX(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int)

// gemm8x16AVX512 adds a*b into c for m a multiple of 8, n of 16 and
// k > 0; the caller has checked the bounds.
//
//go:noescape
func gemm8x16AVX512(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int)

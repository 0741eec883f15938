package linalg

func init() {
	if avxFMA = hasAVXFMA(); avxFMA {
		mulAdd = mulAddAVX
	}
}

// mulAddAVX runs the largest 4x8-divisible corner of c through the
// assembly kernel and the edge rows and columns through the Go loop.
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

// gemm4x8AVX adds a*b into c for m a multiple of 4, n of 8 and k > 0; the
// caller has checked the bounds.
//
//go:noescape
func gemm4x8AVX(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int)

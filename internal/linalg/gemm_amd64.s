#include "textflag.h"

// func hasAVXFMA() bool
TEXT ·hasAVXFMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18001000, CX // FMA (bit 12), OSXSAVE (27), AVX (28)
	CMPL CX, $0x18001000
	JNE  no
	XORL CX, CX
	XGETBV               // XCR0: the OS saves the XMM and YMM state
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func gemm4x8AVX(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int)
//
// c += a*b, one 4x8 block of c at a time: the block lives in Y0-Y7 (two
// registers per row) across the whole k loop, and each k step loads two
// vectors of row k of b, broadcasts the four a elements of column k and
// issues 8 VMULPD and 8 VADDPD. Multiply and add, not FMA: each element of
// c takes the same roundings in the same order as the scalar loop.
TEXT ·gemm4x8AVX(SB), NOSPLIT, $0-120
	MOVQ c_base+0(FP), DI // c, row i0 of the current block row
	MOVQ ldc+24(FP), R8
	SHLQ $3, R8           // bytes per row of c
	MOVQ a_base+32(FP), SI // a, row i0
	MOVQ lda+56(FP), R9
	SHLQ $3, R9
	MOVQ b_base+64(FP), DX
	MOVQ ldb+88(FP), R10
	SHLQ $3, R10
	MOVQ m+96(FP), R11
	SHRQ $2, R11          // block rows left
	MOVQ n+104(FP), R12
	SHLQ $3, R12          // bytes of a block row's width
	LEAQ (R9)(R9*2), R14  // three rows of a

rows:
	XORQ BX, BX // byte offset of the block's first column

cols:
	LEAQ    (DI)(BX*1), R13
	VMOVUPD (R13), Y0
	VMOVUPD 32(R13), Y1
	VMOVUPD (R13)(R8*1), Y2
	VMOVUPD 32(R13)(R8*1), Y3
	LEAQ    (R13)(R8*2), R13
	VMOVUPD (R13), Y4
	VMOVUPD 32(R13), Y5
	VMOVUPD (R13)(R8*1), Y6
	VMOVUPD 32(R13)(R8*1), Y7
	MOVQ    SI, AX          // a[i0][p]
	LEAQ    (DX)(BX*1), R13 // b[p][j0]
	MOVQ    k+112(FP), CX

	PCALIGN $64

kloop:
	VMOVUPD      (R13), Y8
	VMOVUPD      32(R13), Y9
	VBROADCASTSD (AX), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD (AX)(R9*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD (AX)(R9*2), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD (AX)(R14*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y6, Y6
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y7, Y7
	ADDQ         $8, AX
	ADDQ         R10, R13
	DECQ         CX
	JNZ          kloop

	LEAQ    (DI)(BX*1), R13
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, 32(R13)
	VMOVUPD Y2, (R13)(R8*1)
	VMOVUPD Y3, 32(R13)(R8*1)
	LEAQ    (R13)(R8*2), R13
	VMOVUPD Y4, (R13)
	VMOVUPD Y5, 32(R13)
	VMOVUPD Y6, (R13)(R8*1)
	VMOVUPD Y7, 32(R13)(R8*1)
	ADDQ    $64, BX
	CMPQ    BX, R12
	JB      cols

	LEAQ (DI)(R8*4), DI
	LEAQ (SI)(R9*4), SI
	DECQ R11
	JNZ  rows
	VZEROUPPER
	RET

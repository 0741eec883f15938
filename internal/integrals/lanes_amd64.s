#include "textflag.h"

// The 4-lane body of lanes.go in AVX with FMA3: one Y register is one R
// cube entry or one K entry, four lanes. The set-up is one register-
// argument subroutine, setup<>, which both Go entries call; everything
// else of a quartet runs inline in quartet4FMA. VZEROUPPER before every
// return to Go, since the Go code around it is SSE.

// func hasFMA() bool
TEXT ·hasFMA(SB), NOSPLIT, $0-1
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

// Constants of setup4FMA: the Boys grid (boysStep, boysTableMax,
// boysNodes - 1), 1/k! of the Taylor step, sqrt(pi)/2 of the asymptotic
// form, and from offset 128 1/(2m+1) of the downward recursion.
DATA setupk<>+0(SB)/8, $1.0
DATA setupk<>+8(SB)/8, $0.5
DATA setupk<>+16(SB)/8, $10.0                  // 1/boysStep
DATA setupk<>+24(SB)/8, $0.1                   // boysStep
DATA setupk<>+32(SB)/8, $0.16666666666666666   // 1/3!
DATA setupk<>+40(SB)/8, $0.041666666666666664  // 1/4!
DATA setupk<>+48(SB)/8, $0.008333333333333333  // 1/5!
DATA setupk<>+56(SB)/8, $0.001388888888888889  // 1/6!
DATA setupk<>+64(SB)/8, $0.0001984126984126984 // 1/7!
DATA setupk<>+72(SB)/8, $84.0                  // boysTableMax
DATA setupk<>+80(SB)/8, $0.8862269254527579    // sqrt(pi)/2
DATA setupk<>+88(SB)/8, $-2.0
DATA setupk<>+96(SB)/8, $2.0
DATA setupk<>+104(SB)/8, $840.0                // boysNodes - 1
DATA setupk<>+112(SB)/8, $6755399441055744.0   // 1.5 * 2^52: adding it rounds to an integer
DATA setupk<>+120(SB)/8, $0.0
DATA setupk<>+128(SB)/8, $1.0
DATA setupk<>+136(SB)/8, $0.3333333333333333
DATA setupk<>+144(SB)/8, $0.2
DATA setupk<>+152(SB)/8, $0.14285714285714285
DATA setupk<>+160(SB)/8, $0.1111111111111111
DATA setupk<>+168(SB)/8, $0.09090909090909091
DATA setupk<>+176(SB)/8, $0.07692307692307693
DATA setupk<>+184(SB)/8, $0.06666666666666667
DATA setupk<>+192(SB)/8, $0.058823529411764705
DATA setupk<>+200(SB)/8, $0.05263157894736842
DATA setupk<>+208(SB)/8, $0.047619047619047616
DATA setupk<>+216(SB)/8, $0.043478260869565216
DATA setupk<>+224(SB)/8, $0.04
DATA setupk<>+232(SB)/8, $0.037037037037037035
DATA setupk<>+240(SB)/8, $0.034482758620689655
DATA setupk<>+248(SB)/8, $0.03225806451612903
DATA setupk<>+256(SB)/8, $0.030303030303030304
DATA setupk<>+264(SB)/8, $0.02857142857142857
DATA setupk<>+272(SB)/8, $0.02702702702702703
DATA setupk<>+280(SB)/8, $0.02564102564102564
DATA setupk<>+288(SB)/8, $0.024390243902439025
DATA setupk<>+296(SB)/8, $0.023255813953488372
DATA setupk<>+304(SB)/8, $0.022222222222222223
DATA setupk<>+312(SB)/8, $0.02127659574468085
GLOBL setupk<>(SB), RODATA|NOPTR, $320

// setup<> is lanes.setup with its arguments in registers, and a bra
// primitive pair per lane: DI = fn, CX = l, Y0 = the bra exponents and
// Y8, Y9, Y10 their centres along x, y, z (one pair broadcast, or four),
// SI = kb, R12 = d, R13 = pref and DX = the Boys table. It keeps DI, DX,
// SI, R12 and R13 and clobbers AX, BX, CX, R8-R11 and Y0-Y14.
//
// Four lanes at once: the pair geometry and T = alpha |Q-P|^2; each
// lane's nearest Boys table row, the index clamped to the table whatever T
// is; F_l by its Taylor step and exp(-T) = exp(-t0) exp(t0-T) by the same
// powers of t0-T; past the grid F_l = (2l-1)!!/(2T)^l sqrt(pi/T)/2 and
// exp(-T) = 0, selected by mask; then F_m = (2T F_{m+1} + exp(-T))/(2m+1)
// down to m = 0, each times (-2 alpha)^m. The Taylor step is, per lane,
// row[l:l+4] . (1, d, d^2/2!, d^3/3!) + row[l+4:l+8] . (d^4/4!, ...,
// d^7/7!): the powers are formed across lanes and transposed once, so it
// costs two loads and a multiply-add per lane and one horizontal sum. The
// code is ordered for latency: every lane waits on this before its R
// recursion can start.
TEXT setup<>(SB), NOSPLIT, $0
	VMOVUPD      0(SI), Y1           // q = kb.p
	VADDPD       Y1, Y0, Y2          // p + q
	VMULPD       Y1, Y0, Y5          // pq
	VMOVUPD      32(SI), Y7          // kb.x
	VSUBPD       Y8, Y7, Y7
	VMOVUPD      Y7, 0(R12)          // d[0] = Q - P along x
	VMULPD       Y7, Y7, Y4
	VMOVUPD      64(SI), Y7          // kb.y
	VSUBPD       Y9, Y7, Y7
	VMOVUPD      Y7, 32(R12)
	VFMADD231PD  Y7, Y7, Y4
	VMOVUPD      96(SI), Y7          // kb.z
	VSUBPD       Y10, Y7, Y7
	VMOVUPD      Y7, 64(R12)
	VFMADD231PD  Y7, Y7, Y4
	VBROADCASTSD setupk<>+0(SB), Y3
	VDIVPD       Y2, Y3, Y3          // 1/(p+q)
	VMULPD       Y3, Y5, Y5          // alpha
	VMULPD       Y5, Y4, Y4          // T
	VSQRTPD      Y3, Y3
	VMOVUPD      Y3, (R13)           // pref = (p+q)^(-1/2)

	// fn[n] = (-2 alpha)^n for now; the downward pass multiplies F_n in.
	VBROADCASTSD setupk<>+88(SB), Y10
	VMULPD       Y10, Y5, Y10
	VBROADCASTSD setupk<>+0(SB), Y11
	MOVQ         DI, BX
	MOVQ         CX, AX
	INCQ         AX

pow:
	VMOVUPD Y11, (BX)
	VMULPD  Y10, Y11, Y11
	ADDQ    $32, BX
	DECQ    AX
	JNZ     pow

	// Row i = 10T rounded, clamped to [0, boysNodes-1] first (a NaN goes
	// to 0), so no T reads outside the table; dd = i*step - T.
	VBROADCASTSD setupk<>+16(SB), Y6
	VMULPD       Y6, Y4, Y6
	VBROADCASTSD setupk<>+120(SB), Y7
	VMAXPD       Y7, Y6, Y6
	VBROADCASTSD setupk<>+104(SB), Y7
	VMINPD       Y7, Y6, Y6
	VBROADCASTSD setupk<>+112(SB), Y8
	VADDPD       Y8, Y6, Y6          // i in the low bits of each lane
	VSUBPD       Y8, Y6, Y7
	VBROADCASTSD setupk<>+24(SB), Y8
	VFMSUB213PD  Y4, Y8, Y7          // dd
	VMOVQ        X6, R8
	VPEXTRQ      $1, X6, R9
	VEXTRACTF128 $1, Y6, X6
	VMOVQ        X6, R10
	VPEXTRQ      $1, X6, R11
	MOVL         R8, R8
	MOVL         R9, R9
	MOVL         R10, R10
	MOVL         R11, R11

	// exp(-t0) of each lane: boysNodes values after the rows.
	LEAQ        215296(DX), AX       // boysNodes * boysStride * 8
	VMOVSD      (AX)(R8*8), X14
	VMOVHPD     (AX)(R9*8), X14, X14
	VMOVSD      (AX)(R10*8), X0
	VMOVHPD     (AX)(R11*8), X0, X0
	VINSERTF128 $1, X0, Y14, Y14
	SHLQ        $8, R8               // boysStride * 8 bytes per row
	SHLQ        $8, R9
	SHLQ        $8, R10
	SHLQ        $8, R11
	ADDQ        DX, R8               // row of lane 0
	ADDQ        DX, R9
	ADDQ        DX, R10
	ADDQ        DX, R11

	// Powers dd^k/k! across lanes: Y6 = 1, Y7 = dd, ..., Y13 = dd^7/7!,
	// three multiplies deep.
	VMULPD       Y7, Y7, Y8          // dd^2
	VBROADCASTSD setupk<>+32(SB), Y0
	VMULPD       Y0, Y7, Y9
	VBROADCASTSD setupk<>+48(SB), Y0
	VMULPD       Y0, Y7, Y11
	VBROADCASTSD setupk<>+64(SB), Y0
	VMULPD       Y0, Y7, Y13
	VMULPD       Y8, Y9, Y9          // dd^3/3!
	VMULPD       Y8, Y13, Y13
	VMULPD       Y8, Y8, Y10         // dd^4
	VBROADCASTSD setupk<>+56(SB), Y0
	VMULPD       Y0, Y8, Y12
	VMULPD       Y10, Y11, Y11       // dd^5/5!
	VMULPD       Y10, Y12, Y12       // dd^6/6!
	VMULPD       Y10, Y13, Y13       // dd^7/7!
	VBROADCASTSD setupk<>+40(SB), Y0
	VMULPD       Y0, Y10, Y10        // dd^4/4!
	VBROADCASTSD setupk<>+8(SB), Y0
	VMULPD       Y0, Y8, Y8          // dd^2/2!
	VBROADCASTSD setupk<>+0(SB), Y6

	// exp(-T) = exp(-t0) * sum of the powers.
	VADDPD Y7, Y6, Y0
	VADDPD Y9, Y8, Y1
	VADDPD Y11, Y10, Y2
	VADDPD Y13, Y12, Y3
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VMULPD Y0, Y14, Y14

	// Transpose to per-lane coefficients: Y6+j = powers 0-3 of lane j,
	// Y10+j = powers 4-7.
	VUNPCKLPD  Y7, Y6, Y0
	VUNPCKHPD  Y7, Y6, Y1
	VUNPCKLPD  Y9, Y8, Y2
	VUNPCKHPD  Y9, Y8, Y3
	VPERM2F128 $0x20, Y2, Y0, Y6
	VPERM2F128 $0x20, Y3, Y1, Y7
	VPERM2F128 $0x31, Y2, Y0, Y8
	VPERM2F128 $0x31, Y3, Y1, Y9
	VUNPCKLPD  Y11, Y10, Y0
	VUNPCKHPD  Y11, Y10, Y1
	VUNPCKLPD  Y13, Y12, Y2
	VUNPCKHPD  Y13, Y12, Y3
	VPERM2F128 $0x20, Y2, Y0, Y10
	VPERM2F128 $0x20, Y3, Y1, Y11
	VPERM2F128 $0x31, Y2, Y0, Y12
	VPERM2F128 $0x31, Y3, Y1, Y13

	// F_l by its Taylor step.
	VMULPD      (R8)(CX*8), Y6, Y0
	VFMADD231PD 32(R8)(CX*8), Y10, Y0
	VMULPD      (R9)(CX*8), Y7, Y1
	VFMADD231PD 32(R9)(CX*8), Y11, Y1
	VMULPD      (R10)(CX*8), Y8, Y2
	VFMADD231PD 32(R10)(CX*8), Y12, Y2
	VMULPD      (R11)(CX*8), Y9, Y3
	VFMADD231PD 32(R11)(CX*8), Y13, Y3
	VHADDPD     Y1, Y0, Y0
	VHADDPD     Y3, Y2, Y2
	VPERM2F128  $0x20, Y2, Y0, Y1
	VPERM2F128  $0x31, Y2, Y0, Y3
	VADDPD      Y3, Y1, Y1

	// Past the grid, from max(T, boysTableMax) so every lane stays finite;
	// skipped when no lane is past it.
	VBROADCASTSD setupk<>+72(SB), Y6
	VCMPPD       $0x1e, Y6, Y4, Y7   // T > boysTableMax
	VMOVMSKPD    Y7, AX
	TESTL        AX, AX
	JZ           down0
	VMAXPD       Y6, Y4, Y8
	VSQRTPD      Y8, Y9
	VBROADCASTSD setupk<>+0(SB), Y10
	VDIVPD       Y9, Y10, Y9         // T^(-1/2)
	VMULPD       Y9, Y9, Y8
	VBROADCASTSD setupk<>+8(SB), Y11
	VMULPD       Y11, Y8, Y8         // 1/(2T)
	VBROADCASTSD setupk<>+80(SB), Y11
	VMULPD       Y11, Y9, Y9         // F_0
	VBROADCASTSD setupk<>+96(SB), Y11
	MOVQ         CX, AX
	TESTQ        AX, AX
	JZ           blend

up:
	VMULPD Y8, Y10, Y0
	VMULPD Y0, Y9, Y9                // F_{m+1} = (2m+1)/(2T) F_m
	VADDPD Y11, Y10, Y10
	DECQ   AX
	JNZ    up

blend:
	VBLENDVPD Y7, Y9, Y1, Y1         // F_l
	VANDNPD   Y14, Y7, Y14           // exp(-T), 0 past the grid

down0:
	// Downward to F_0: F_m = F_{m+1} 2T/(2m+1) + exp(-T)/(2m+1), each
	// times the (-2 alpha)^m already in fn[m].
	VADDPD  Y4, Y4, Y2               // 2T
	MOVQ    CX, AX
	SHLQ    $5, AX
	ADDQ    DI, AX
	VMULPD  (AX), Y1, Y0
	VMOVUPD Y0, (AX)
	TESTQ   CX, CX
	JZ      done
	LEAQ    setupk<>+128(SB), BX     // 1/(2m+1)

down:
	VBROADCASTSD -8(BX)(CX*8), Y3
	VMULPD       Y3, Y2, Y6
	VMULPD       Y3, Y14, Y7
	VFMADD213PD  Y7, Y6, Y1
	SUBQ         $32, AX
	VMULPD       (AX), Y1, Y0
	VMOVUPD      Y0, (AX)
	DECQ         CX
	JNZ          down

done:
	RET

// func setup4FMA(fn []float64, l int, p float64, c *[3]float64, kb *primBatch, d *[4][4]float64, pref *[4]float64, table []float64)
TEXT ·setup4FMA(SB), NOSPLIT, $0-96
	VBROADCASTSD p+32(FP), Y0
	MOVQ         c+40(FP), AX
	VBROADCASTSD 0(AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	MOVQ         fn_base+0(FP), DI
	MOVQ         l+24(FP), CX
	MOVQ         kb+48(FP), SI
	MOVQ         d+56(FP), R12
	MOVQ         pref+64(FP), R13
	MOVQ         table_base+72(FP), DX
	CALL         setup<>(SB)
	VZEROUPPER
	RET

// func quartet4FMA(blk []float64, bra, ket []primBatch, tail *primBatch, l, lb, ncd int, x *hermIndex, s *eriScratch)
//
// The loop of quartet4Go. It reads hermIndex, eriScratch and primBatch at
// the offsets TestLaneLayout pins. A batch pass (set-up, recursion, fold
// into the K at 168(SP)) serves the ket batches of each bra lane and, with
// a tail, the tail against each bra batch; the flag at 176(SP) says which
// one is running. The frame holds what the loop needs between phases:
//
//	0 fn4   8 Boys table   16 &s.d   24 &s.pref   32 r0   40 r1
//	48 steps   56 count   64 k4   72 k   80 entries of K (nh*ncd)
//	88 boff   96 nh   104 bytes per row of K4   112 sign
//	120 bra batch   128 bra batches left   136 lane in the bra batch
//	144 ket batch   152 ket batches left   160 kt   168 the K folded into
//	176 1 in the tail pass, else 0
TEXT ·quartet4FMA(SB), NOSPLIT, $184-120
	MOVQ  s+112(FP), SI
	MOVQ  x+104(FP), R8
	MOVQ  144(SI), AX
	MOVQ  AX, 0(SP)
	MOVQ  104(R8), AX
	MOVQ  AX, 8(SP)
	LEAQ  168(SI), AX
	MOVQ  AX, 16(SP)
	LEAQ  296(SI), AX
	MOVQ  AX, 24(SP)
	MOVQ  0(SI), AX
	MOVQ  AX, 32(SP)
	MOVQ  24(SI), AX
	MOVQ  AX, 40(SP)
	MOVQ  80(R8), AX
	MOVQ  AX, 48(SP)
	MOVQ  8(R8), BX
	MOVQ  BX, 56(SP)
	MOVQ  48(SI), AX
	MOVQ  AX, 64(SP)
	MOVQ  72(SI), AX
	MOVQ  AX, 160(SP)
	MOVQ  96(SI), AX
	MOVQ  AX, 72(SP)
	MOVQ  32(R8), AX
	MOVQ  AX, 88(SP)
	MOVQ  56(R8), AX
	MOVQ  AX, 112(SP)
	MOVQ  lb+88(FP), AX
	MOVQ  (BX)(AX*8), AX      // nh = count[lb]
	MOVQ  AX, 96(SP)
	MOVQ  ncd+96(FP), CX
	IMULQ CX, AX
	MOVQ  AX, 80(SP)
	SHLQ  $5, CX
	MOVQ  CX, 104(SP)
	MOVQ  bra_base+24(FP), AX
	MOVQ  AX, 120(SP)
	MOVQ  bra_len+32(FP), AX
	MOVQ  AX, 128(SP)
	TESTQ AX, AX
	JZ    done

brabatch:
	MOVQ  $0, 136(SP)
	MOVQ  tail+72(FP), SI
	TESTQ SI, SI
	JZ    bralane

	// The tail against the four lanes of the bra batch, into KT.
	MOVQ   160(SP), DI
	MOVQ   DI, 168(SP)
	MOVQ   80(SP), CX
	VXORPD Y0, Y0, Y0

zerot:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JNZ     zerot
	MOVQ    $1, 176(SP)
	MOVQ    SI, 144(SP)
	MOVQ    120(SP), AX
	VMOVUPD 0(AX), Y0
	VMOVUPD 32(AX), Y8
	VMOVUPD 64(AX), Y9
	VMOVUPD 96(AX), Y10
	JMP     batch

bralane:
	// K4 = 0.
	MOVQ   64(SP), DI
	MOVQ   DI, 168(SP)
	MOVQ   80(SP), CX
	VXORPD Y0, Y0, Y0

zero:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JNZ     zero
	MOVQ    $0, 176(SP)
	MOVQ    ket_base+48(FP), AX
	MOVQ    AX, 144(SP)
	MOVQ    ket_len+56(FP), AX
	MOVQ    AX, 152(SP)
	TESTQ   AX, AX
	JZ      lanesum

ketbatch:
	MOVQ         120(SP), AX
	MOVQ         136(SP), BX
	LEAQ         (AX)(BX*8), AX      // the bra lane: p, x, y, z 32 bytes apart
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 32(AX), Y8
	VBROADCASTSD 64(AX), Y9
	VBROADCASTSD 96(AX), Y10

batch:
	MOVQ 0(SP), DI
	MOVQ l+80(FP), CX
	MOVQ 144(SP), SI
	MOVQ 16(SP), R12
	MOVQ 24(SP), R13
	MOVQ 8(SP), DX
	CALL setup<>(SB)

	// The R recursion, level n = l down to 0, swapping the cubes: cur
	// (DI) = fn[n] at entry 0, then one step per entry of order <= l-n.
	MOVQ 32(SP), DI
	MOVQ 40(SP), SI
	MOVQ 0(SP), R8
	MOVQ 48(SP), R9
	MOVQ 56(SP), R10
	MOVQ l+80(FP), R11
	MOVQ R11, R13             // n = l

level:
	XCHGQ   DI, SI
	MOVQ    R13, AX
	SHLQ    $5, AX
	VMOVUPD (R8)(AX*1), Y0
	VMOVUPD Y0, (DI)          // cur[0] = fn[n]
	MOVQ    R11, AX
	SUBQ    R13, AX
	MOVQ    (R10)(AX*8), CX   // count[l-n]: this level's entries
	DECQ    CX
	JZ      nextlevel
	MOVQ    R9, BX

step:
	VBROADCASTSD (BX), Y1               // coef
	MOVWQZX      12(BX), AX             // b
	SHLQ         $5, AX
	VMULPD       (SI)(AX*1), Y1, Y1     // coef * prev[b]
	MOVBQZX      14(BX), AX             // axis
	SHLQ         $5, AX
	VMOVUPD      (R12)(AX*1), Y2        // d[axis]
	MOVWQZX      10(BX), AX             // a
	SHLQ         $5, AX
	VFMADD231PD  (SI)(AX*1), Y2, Y1     // + d[axis] * prev[a]
	MOVWQZX      8(BX), AX              // dst
	SHLQ         $5, AX
	VMOVUPD      Y1, (DI)(AX*1)
	ADDQ         $16, BX
	DECQ         CX
	JNZ          step

nextlevel:
	DECQ R13
	JGE  level

	// The fold of R^0 (DI) into K: for every term of the batch, w =
	// g * pref, and K[h][ab] += w * R[off + boff[h]] for every h.
	MOVQ    DI, SI
	MOVQ    168(SP), DI
	MOVQ    104(SP), R13
	MOVQ    88(SP), R8
	MOVQ    96(SP), CX
	MOVQ    144(SP), AX
	MOVQ    136(AX), R9       // kb.terms
	MOVQ    144(AX), R10
	MOVQ    24(SP), AX
	VMOVUPD (AX), Y3
	TESTQ   R10, R10
	JZ      folded

term:
	VMULPD  (R9), Y3, Y0      // w = g * pref
	MOVWQZX 32(R9), AX        // ab
	SHLQ    $5, AX
	LEAQ    (DI)(AX*1), R11   // K[0][ab]
	MOVWQZX 36(R9), AX        // off
	SHLQ    $5, AX
	LEAQ    (SI)(AX*1), R12   // R[off]
	MOVQ    R8, BX
	MOVQ    CX, DX

hloop:
	MOVWQZX     (BX), AX      // boff[h]
	SHLQ        $5, AX
	VMOVUPD     (R11), Y1
	VFMADD231PD (R12)(AX*1), Y0, Y1
	VMOVUPD     Y1, (R11)
	ADDQ        R13, R11      // K[h+1][ab]
	ADDQ        $2, BX
	DECQ        DX
	JNZ         hloop
	ADDQ        $40, R9
	DECQ        R10
	JNZ         term

folded:
	CMPQ 176(SP), $0
	JNE  bralane              // the tail pass is done: on to the bra lanes
	ADDQ $160, 144(SP)        // next ket batch
	DECQ 152(SP)
	JNZ  ketbatch

lanesum:
	// With a tail, K4 lane bl += KT lane bl.
	MOVQ  tail+72(FP), AX
	TESTQ AX, AX
	JZ    sum
	MOVQ  136(SP), AX
	MOVQ  64(SP), DI
	LEAQ  (DI)(AX*8), DI
	MOVQ  160(SP), SI
	LEAQ  (SI)(AX*8), SI
	MOVQ  80(SP), CX

addt:
	VMOVSD (DI), X0
	VADDSD (SI), X0, X0
	VMOVSD X0, (DI)
	ADDQ   $32, DI
	ADDQ   $32, SI
	DECQ   CX
	JNZ    addt

sum:
	// The lane sum: k[i] = (k4[4i] + k4[4i+1]) + (k4[4i+2] + k4[4i+3]).
	MOVQ 72(SP), DI
	MOVQ 80(SP), CX
	MOVQ 64(SP), SI

quad:
	CMPQ       CX, $4
	JB         tail
	VMOVUPD    (SI), Y0                // a
	VMOVUPD    32(SI), Y1              // b
	VMOVUPD    64(SI), Y2              // c
	VMOVUPD    96(SI), Y3              // d
	VHADDPD    Y1, Y0, Y0              // a0+a1 b0+b1 a2+a3 b2+b3
	VHADDPD    Y3, Y2, Y2              // c0+c1 d0+d1 c2+c3 d2+d3
	VPERM2F128 $0x20, Y2, Y0, Y1       // a0+a1 b0+b1 c0+c1 d0+d1
	VPERM2F128 $0x31, Y2, Y0, Y3       // a2+a3 b2+b3 c2+c3 d2+d3
	VADDPD     Y3, Y1, Y1
	VMOVUPD    Y1, (DI)
	ADDQ       $128, SI
	ADDQ       $32, DI
	SUBQ       $4, CX
	JMP        quad

tail:
	TESTQ   CX, CX
	JZ      summed
	VMOVUPD (SI), X0
	VMOVUPD 16(SI), X1
	VHADDPD X0, X0, X0
	VHADDPD X1, X1, X1
	VADDSD  X1, X0, X0
	VMOVSD  X0, (DI)
	ADDQ    $32, SI
	ADDQ    $8, DI
	DECQ    CX
	JMP     tail

summed:
	// The bra contraction: blk[ab] += g[lane] sign[h] K[h] for every term
	// of the bra batch, rows of ncd.
	MOVQ  blk_base+0(FP), DI
	MOVQ  72(SP), SI
	MOVQ  ncd+96(FP), CX
	MOVQ  120(SP), AX
	MOVQ  136(AX), R9         // bb.terms
	MOVQ  144(AX), R10
	MOVQ  136(SP), R11
	MOVQ  112(SP), R12
	MOVQ  CX, R13
	SHLQ  $3, R13             // bytes per row
	TESTQ R10, R10
	JZ    contracted

cterm:
	MOVWQZX     34(R9), AX    // h
	VMOVSD      (R9)(R11*8), X0
	VMULSD      (R12)(AX*8), X0, X0 // w = g[lane] * sign[h]
	VMOVDDUP    X0, X0
	VINSERTF128 $1, X0, Y0, Y0
	IMULQ       R13, AX
	LEAQ        (SI)(AX*1), BX      // K[h]
	MOVWQZX     32(R9), AX          // ab
	IMULQ       R13, AX
	ADDQ        DI, AX              // blk[ab]
	MOVQ        CX, DX

vec:
	CMPQ        DX, $4
	JB          scalar
	VMOVUPD     (AX), Y1
	VFMADD231PD (BX), Y0, Y1
	VMOVUPD     Y1, (AX)
	ADDQ        $32, AX
	ADDQ        $32, BX
	SUBQ        $4, DX
	JMP         vec

scalar:
	TESTQ       DX, DX
	JZ          cnext
	VMOVSD      (AX), X1
	VFMADD231SD (BX), X0, X1
	VMOVSD      X1, (AX)
	ADDQ        $8, AX
	ADDQ        $8, BX
	DECQ        DX
	JMP         scalar

cnext:
	ADDQ $40, R9
	DECQ R10
	JNZ  cterm

contracted:
	// Next lane of the bra batch, then the next bra batch.
	MOVQ 120(SP), AX
	MOVQ 136(SP), BX
	INCQ BX
	MOVQ BX, 136(SP)
	CMPQ BX, 128(AX)          // bb.n
	JLT  bralane
	ADDQ $160, 120(SP)
	DECQ 128(SP)
	JNZ  brabatch

done:
	VZEROUPPER
	RET

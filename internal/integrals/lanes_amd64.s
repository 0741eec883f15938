#include "textflag.h"

// The 4-lane body of lanes.go in AVX with FMA3: one Y register is one R
// cube entry or one K entry, four lanes. VZEROUPPER before every return,
// since the Go code around it is SSE.

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

// func recur4FMA(r0, r1, fn []float64, steps []rStep, count []int, l int, d *[4][4]float64)
TEXT ·recur4FMA(SB), NOSPLIT, $0-136
	MOVQ r0_base+0(FP), DI    // cur
	MOVQ r1_base+24(FP), SI   // prev
	MOVQ fn_base+48(FP), R8
	MOVQ steps_base+72(FP), R9
	MOVQ count_base+96(FP), R10
	MOVQ l+120(FP), R11
	MOVQ d+128(FP), R12
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
	JZ      next
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

next:
	DECQ R13
	JGE  level
	VZEROUPPER
	RET

// func fold4FMA(k []float64, ncd int, r []float64, boff []uint16, terms []laneTerm, pref *[4]float64)
TEXT ·fold4FMA(SB), NOSPLIT, $0-112
	MOVQ    k_base+0(FP), DI
	MOVQ    ncd+24(FP), R13
	SHLQ    $5, R13           // bytes per row K[h]
	MOVQ    r_base+32(FP), SI
	MOVQ    boff_base+56(FP), R8
	MOVQ    boff_len+64(FP), CX
	MOVQ    terms_base+80(FP), R9
	MOVQ    terms_len+88(FP), R10
	MOVQ    pref+104(FP), AX
	VMOVUPD (AX), Y3
	TESTQ   R10, R10
	JZ      done

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

done:
	VZEROUPPER
	RET

// func sum4AVX(k, k4 []float64)
TEXT ·sum4AVX(SB), NOSPLIT, $0-48
	MOVQ k_base+0(FP), DI
	MOVQ k_len+8(FP), CX
	MOVQ k4_base+24(FP), SI

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
	JZ      done
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

done:
	VZEROUPPER
	RET

// func contractFMA(blk, k []float64, ncd int, terms []laneTerm, lane int, sign []float64)
TEXT ·contractFMA(SB), NOSPLIT, $0-112
	MOVQ  blk_base+0(FP), DI
	MOVQ  k_base+24(FP), SI
	MOVQ  ncd+48(FP), CX
	MOVQ  terms_base+56(FP), R9
	MOVQ  terms_len+64(FP), R10
	MOVQ  lane+80(FP), R11
	MOVQ  sign_base+88(FP), R12
	MOVQ  CX, R13
	SHLQ  $3, R13             // bytes per row
	TESTQ R10, R10
	JZ    done

term:
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
	JZ          next
	VMOVSD      (AX), X1
	VFMADD231SD (BX), X0, X1
	VMOVSD      X1, (AX)
	ADDQ        $8, AX
	ADDQ        $8, BX
	DECQ        DX
	JMP         scalar

next:
	ADDQ $40, R9
	DECQ R10
	JNZ  term

done:
	VZEROUPPER
	RET

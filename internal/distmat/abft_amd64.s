#include "textflag.h"

// Both bodies compute, per element, mismatchGo's d = |f - s| and its two
// bounds abs + rel*|f| and abs + rel*|s| with one rounded multiply and
// one rounded add each, and flag the element when !(d <= max finite) or
// when d is within neither bound. The compares are NLE_UQ (predicate
// 0x16, true on NaN), the negation of Go's ordered d <= x, so a NaN or
// infinite difference is a mismatch here exactly as it is there.

// func mismatchAVX(fresh, stored []float64, k *[4]float64) bool
TEXT ·mismatchAVX(SB), NOSPLIT, $0-57
	MOVQ         fresh_base+0(FP), SI
	MOVQ         fresh_len+8(FP), CX
	MOVQ         stored_base+24(FP), DI
	MOVQ         k+48(FP), AX
	VBROADCASTSD (AX), Y12  // abftAbsTol
	VBROADCASTSD 8(AX), Y13 // abftRelTol
	VBROADCASTSD 16(AX), Y14 // math.MaxFloat64
	VBROADCASTSD 24(AX), Y15 // sign bit
	SHRQ         $3, CX

loop:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y4
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y5
	VSUBPD  Y1, Y0, Y2
	VSUBPD  Y5, Y4, Y6
	VANDNPD Y2, Y15, Y2 // d
	VANDNPD Y6, Y15, Y6
	VANDNPD Y0, Y15, Y0 // |f|
	VANDNPD Y4, Y15, Y4
	VANDNPD Y1, Y15, Y1 // |s|
	VANDNPD Y5, Y15, Y5
	VMULPD  Y13, Y0, Y0
	VMULPD  Y13, Y4, Y4
	VMULPD  Y13, Y1, Y1
	VMULPD  Y13, Y5, Y5
	VADDPD  Y12, Y0, Y0 // bound of f
	VADDPD  Y12, Y4, Y4
	VADDPD  Y12, Y1, Y1 // bound of s
	VADDPD  Y12, Y5, Y5
	VCMPPD  $0x16, Y0, Y2, Y0 // !(d <= bound of f)
	VCMPPD  $0x16, Y4, Y6, Y4
	VCMPPD  $0x16, Y1, Y2, Y1 // !(d <= bound of s)
	VCMPPD  $0x16, Y5, Y6, Y5
	VCMPPD  $0x16, Y14, Y2, Y2 // !(d <= max finite)
	VCMPPD  $0x16, Y14, Y6, Y6
	VANDPD  Y1, Y0, Y0
	VANDPD  Y5, Y4, Y4
	VORPD   Y2, Y0, Y0
	VORPD   Y6, Y4, Y4
	VORPD   Y4, Y0, Y0
	VTESTPD Y0, Y0
	JNE     found
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER
	MOVB    $0, ret+56(FP)
	RET

found:
	VZEROUPPER
	MOVB $1, ret+56(FP)
	RET

// func mismatchAVX512(fresh, stored []float64, k *[4]float64) bool
TEXT ·mismatchAVX512(SB), NOSPLIT, $0-57
	MOVQ         fresh_base+0(FP), SI
	MOVQ         fresh_len+8(FP), CX
	MOVQ         stored_base+24(FP), DI
	MOVQ         k+48(FP), AX
	VBROADCASTSD (AX), Z12
	VBROADCASTSD 8(AX), Z13
	VBROADCASTSD 16(AX), Z14
	VBROADCASTSD 24(AX), Z15
	SHRQ         $4, CX

loop:
	VMOVUPD (SI), Z0
	VMOVUPD 64(SI), Z4
	VMOVUPD (DI), Z1
	VMOVUPD 64(DI), Z5
	VSUBPD  Z1, Z0, Z2
	VSUBPD  Z5, Z4, Z6
	VPANDNQ Z2, Z15, Z2 // d
	VPANDNQ Z6, Z15, Z6
	VPANDNQ Z0, Z15, Z0 // |f|
	VPANDNQ Z4, Z15, Z4
	VPANDNQ Z1, Z15, Z1 // |s|
	VPANDNQ Z5, Z15, Z5
	VMULPD  Z13, Z0, Z0
	VMULPD  Z13, Z4, Z4
	VMULPD  Z13, Z1, Z1
	VMULPD  Z13, Z5, Z5
	VADDPD  Z12, Z0, Z0
	VADDPD  Z12, Z4, Z4
	VADDPD  Z12, Z1, Z1
	VADDPD  Z12, Z5, Z5
	VCMPPD  $0x16, Z0, Z2, K1     // !(d <= bound of f)
	VCMPPD  $0x16, Z4, Z6, K2
	VCMPPD  $0x16, Z1, Z2, K1, K1 // ... and !(d <= bound of s)
	VCMPPD  $0x16, Z5, Z6, K2, K2
	VCMPPD  $0x16, Z14, Z2, K3    // !(d <= max finite)
	VCMPPD  $0x16, Z14, Z6, K4
	KORW    K1, K3, K3
	KORW    K2, K4, K4
	KORTESTW K3, K4
	JNE     found512
	ADDQ    $128, SI
	ADDQ    $128, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER
	MOVB    $0, ret+56(FP)
	RET

found512:
	VZEROUPPER
	MOVB $1, ret+56(FP)
	RET

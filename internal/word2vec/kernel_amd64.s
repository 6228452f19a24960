#include "textflag.h"

// SSE2 is the amd64 baseline, so these need no feature check. Neither
// kernel fuses a multiply into an add: every product is rounded on its
// own, as in the Go kernels they reproduce.

// func dotSix(vi []float32, vo *[6][]float32, d *[6]float64)
//
// The six chains sit in pairs (d0,d1), (d2,d3), (d4,d5), one per
// accumulator X0-X2. A step takes elements i and i+1: it widens two
// float32 of each row, transposes a pair of rows into (vA[i],vB[i]) and
// (vA[i+1],vB[i+1]), and adds their products with the broadcast x_i and
// then x_{i+1}, so each lane adds its chain's products in element order.
// An odd last element runs alone.
TEXT ·dotSix(SB), NOSPLIT, $0-40
	MOVQ vi_base+0(FP), SI
	MOVQ vi_len+8(FP), CX
	MOVQ vo+24(FP), DX
	MOVQ d+32(FP), DI
	MOVQ 0(DX), R8
	MOVQ 24(DX), R9
	MOVQ 48(DX), R10
	MOVQ 72(DX), R11
	MOVQ 96(DX), R12
	MOVQ 120(DX), R13
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	MOVQ CX, BX
	ANDQ $-2, BX
	XORQ AX, AX

dotpairs:
	CMPQ AX, BX
	JAE  dottail
	MOVSD    (SI)(AX*4), X3
	CVTPS2PD X3, X3
	MOVAPD   X3, X4
	UNPCKLPD X4, X4        // (x_i, x_i)
	UNPCKHPD X3, X3        // (x_i+1, x_i+1)

	MOVSD    (R8)(AX*4), X5
	CVTPS2PD X5, X5
	MOVSD    (R9)(AX*4), X6
	CVTPS2PD X6, X6
	MOVAPD   X5, X7
	UNPCKLPD X6, X7        // (v0[i], v1[i])
	UNPCKHPD X6, X5        // (v0[i+1], v1[i+1])
	MULPD    X4, X7
	ADDPD    X7, X0
	MULPD    X3, X5
	ADDPD    X5, X0

	MOVSD    (R10)(AX*4), X8
	CVTPS2PD X8, X8
	MOVSD    (R11)(AX*4), X9
	CVTPS2PD X9, X9
	MOVAPD   X8, X10
	UNPCKLPD X9, X10
	UNPCKHPD X9, X8
	MULPD    X4, X10
	ADDPD    X10, X1
	MULPD    X3, X8
	ADDPD    X8, X1

	MOVSD    (R12)(AX*4), X11
	CVTPS2PD X11, X11
	MOVSD    (R13)(AX*4), X12
	CVTPS2PD X12, X12
	MOVAPD   X11, X13
	UNPCKLPD X12, X13
	UNPCKHPD X12, X11
	MULPD    X4, X13
	ADDPD    X13, X2
	MULPD    X3, X11
	ADDPD    X11, X2

	ADDQ $2, AX
	JMP  dotpairs

dottail:
	CMPQ AX, CX
	JAE  dotdone
	MOVSS    (SI)(AX*4), X3
	CVTSS2SD X3, X3
	UNPCKLPD X3, X3        // (x, x)

	MOVSS    (R8)(AX*4), X5
	MOVSS    (R9)(AX*4), X6
	UNPCKLPS X6, X5
	CVTPS2PD X5, X5        // (v0, v1)
	MULPD    X3, X5
	ADDPD    X5, X0

	MOVSS    (R10)(AX*4), X5
	MOVSS    (R11)(AX*4), X6
	UNPCKLPS X6, X5
	CVTPS2PD X5, X5
	MULPD    X3, X5
	ADDPD    X5, X1

	MOVSS    (R12)(AX*4), X5
	MOVSS    (R13)(AX*4), X6
	UNPCKLPS X6, X5
	CVTPS2PD X5, X5
	MULPD    X3, X5
	ADDPD    X5, X2

dotdone:
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	RET

// UPDATE applies target k's step to the lanes of X0 (vi) with the row
// at base and the broadcast coefficient in xg: it loads vo_k, adds
// coef_k·vo_k to the gradient in X1, adds coef_k·vi to vo_k and stores
// it. MOV, MUL and ADD name the packed or the scalar forms.
#define UPDATE(MOV, MUL, ADD, base, xg) \
	MOV    (base)(AX*4), X2; \
	MOVAPS X2, X3; \
	MUL    xg, X3; \
	ADD    X3, X1; \
	MOVAPS X0, X3; \
	MUL    xg, X3; \
	ADD    X3, X2; \
	MOV    X2, (base)(AX*4)

// func updateSix(vi []float32, vo *[6][]float32, coef *[6]float32)
//
// Four elements at a time, in float32 lanes: per target in order, the
// gradient (from +0, as the Go loop's) takes coef_k·vo_k before vo_k
// takes coef_k·vi; then vi takes the gradient. The last len(vi) mod 4
// elements run one at a time.
TEXT ·updateSix(SB), NOSPLIT, $0-40
	MOVQ vi_base+0(FP), SI
	MOVQ vi_len+8(FP), CX
	MOVQ vo+24(FP), DX
	MOVQ coef+32(FP), DI
	MOVQ 0(DX), R8
	MOVQ 24(DX), R9
	MOVQ 48(DX), R10
	MOVQ 72(DX), R11
	MOVQ 96(DX), R12
	MOVQ 120(DX), R13
	MOVSS  0(DI), X8
	SHUFPS $0, X8, X8
	MOVSS  4(DI), X9
	SHUFPS $0, X9, X9
	MOVSS  8(DI), X10
	SHUFPS $0, X10, X10
	MOVSS  12(DI), X11
	SHUFPS $0, X11, X11
	MOVSS  16(DI), X12
	SHUFPS $0, X12, X12
	MOVSS  20(DI), X13
	SHUFPS $0, X13, X13
	MOVQ CX, BX
	ANDQ $-4, BX
	XORQ AX, AX

updquads:
	CMPQ AX, BX
	JAE  updtail
	MOVUPS (SI)(AX*4), X0
	XORPS  X1, X1
	UPDATE(MOVUPS, MULPS, ADDPS, R8, X8)
	UPDATE(MOVUPS, MULPS, ADDPS, R9, X9)
	UPDATE(MOVUPS, MULPS, ADDPS, R10, X10)
	UPDATE(MOVUPS, MULPS, ADDPS, R11, X11)
	UPDATE(MOVUPS, MULPS, ADDPS, R12, X12)
	UPDATE(MOVUPS, MULPS, ADDPS, R13, X13)
	ADDPS  X1, X0
	MOVUPS X0, (SI)(AX*4)
	ADDQ   $4, AX
	JMP    updquads

updtail:
	CMPQ AX, CX
	JAE  upddone
	MOVSS (SI)(AX*4), X0
	XORPS X1, X1
	UPDATE(MOVSS, MULSS, ADDSS, R8, X8)
	UPDATE(MOVSS, MULSS, ADDSS, R9, X9)
	UPDATE(MOVSS, MULSS, ADDSS, R10, X10)
	UPDATE(MOVSS, MULSS, ADDSS, R11, X11)
	UPDATE(MOVSS, MULSS, ADDSS, R12, X12)
	UPDATE(MOVSS, MULSS, ADDSS, R13, X13)
	ADDSS X1, X0
	MOVSS X0, (SI)(AX*4)
	INCQ  AX
	JMP   updtail

upddone:
	RET

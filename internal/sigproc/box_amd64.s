#include "textflag.h"

// AVX2 box-filter kernel (see box.go for the contract). Per element, in
// order: dst = sums·inv (mode bit 0), sums += add (bit 1), sums −= rem
// (bit 2), then either dst = sums·inv (bit 3, MeanRow: sums is not
// stored) or, if bit 1 or 2 is set, sums is stored back. sums is the
// first source operand of every add, subtract and multiply, as in the Go
// kernel, so a NaN propagates the same way. The filter's steady state
// (bits 0-2) and MeanRow (bits 1 and 3) run 8 elements per iteration;
// every mode then runs 4 lanes per iteration and a scalar tail. No FMA.

// func boxStepAVX2(dst, sums, add, rem *float64, n int, inv float64, mode int)
TEXT ·boxStepAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ sums+8(FP), SI
	MOVQ add+16(FP), R8
	MOVQ rem+24(FP), R9
	MOVQ n+32(FP), CX
	VBROADCASTSD inv+40(FP), Y7
	MOVQ mode+48(FP), R10
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX             // elements in pairs of vectors
	CMPQ R10, $7
	JEQ  boxStep8
	CMPQ R10, $10
	JEQ  boxMean8
	JMP  boxAny

boxStep8:
	CMPQ AX, DX
	JGE  boxAny
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD Y7, Y0, Y1
	VMULPD Y7, Y2, Y3
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y3, 32(DI)(AX*8)
	VADDPD (R8)(AX*8), Y0, Y0
	VADDPD 32(R8)(AX*8), Y2, Y2
	VSUBPD (R9)(AX*8), Y0, Y0
	VSUBPD 32(R9)(AX*8), Y2, Y2
	VMOVUPD Y0, (SI)(AX*8)
	VMOVUPD Y2, 32(SI)(AX*8)
	ADDQ $8, AX
	JMP  boxStep8

boxMean8:
	CMPQ AX, DX
	JGE  boxAny
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y2
	VADDPD (R8)(AX*8), Y0, Y0
	VADDPD 32(R8)(AX*8), Y2, Y2
	VMULPD Y7, Y0, Y1
	VMULPD Y7, Y2, Y3
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y3, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  boxMean8

boxAny:
	MOVQ CX, DX
	ANDQ $-4, DX             // elements in whole vectors

boxLoop4:
	CMPQ AX, DX
	JGE  boxLoop1
	VMOVUPD (SI)(AX*8), Y0
	TESTQ $1, R10
	JEQ  boxAdd4
	VMULPD Y7, Y0, Y1
	VMOVUPD Y1, (DI)(AX*8)

boxAdd4:
	TESTQ $2, R10
	JEQ  boxRem4
	VADDPD (R8)(AX*8), Y0, Y0

boxRem4:
	TESTQ $4, R10
	JEQ  boxPost4
	VSUBPD (R9)(AX*8), Y0, Y0

boxPost4:
	TESTQ $8, R10
	JEQ  boxStore4
	VMULPD Y7, Y0, Y1
	VMOVUPD Y1, (DI)(AX*8)
	JMP  boxNext4

boxStore4:
	TESTQ $6, R10
	JEQ  boxNext4
	VMOVUPD Y0, (SI)(AX*8)

boxNext4:
	ADDQ $4, AX
	JMP  boxLoop4

boxLoop1:
	CMPQ AX, CX
	JGE  boxDone
	VMOVSD (SI)(AX*8), X0
	TESTQ $1, R10
	JEQ  boxAdd1
	VMULSD X7, X0, X1
	VMOVSD X1, (DI)(AX*8)

boxAdd1:
	TESTQ $2, R10
	JEQ  boxRem1
	VADDSD (R8)(AX*8), X0, X0

boxRem1:
	TESTQ $4, R10
	JEQ  boxPost1
	VSUBSD (R9)(AX*8), X0, X0

boxPost1:
	TESTQ $8, R10
	JEQ  boxStore1
	VMULSD X7, X0, X1
	VMOVSD X1, (DI)(AX*8)
	JMP  boxNext1

boxStore1:
	TESTQ $6, R10
	JEQ  boxNext1
	VMOVSD X0, (SI)(AX*8)

boxNext1:
	INCQ AX
	JMP  boxLoop1

boxDone:
	VZEROUPPER
	RET

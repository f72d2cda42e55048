#include "textflag.h"

// The sponge's 8-lane walker (DESIGN.md §9): one call damps a run of rows of
// one k-plane. Each row forms its factor fyz = fy[r]·fz as one scalar
// product, as the Go loop does, then multiplies each value by fx[i]·fyz —
// eight lanes to a YMM register, the n mod 8 values at the row's end one at
// a time — one rounding per operation and no FMA, so every lane stores what
// the Go loop stores. Every instruction between the first YMM write and
// VZEROUPPER is VEX-encoded.
//
// Registers: CX = n, DX = rows left, R8 = the row stride in bytes, DI = the
// row, R9 = fx, R10 = fy at the row, R11 = the row's vector cells, X3 = fz,
// X2 = fyz and Y1 = fyz on 8 lanes.

// func dampRows8(n, rows, stride int, x, fx, fy *float32, fz float32)
TEXT ·dampRows8(SB), NOSPLIT, $0-52
	MOVQ n+0(FP), CX
	MOVQ rows+8(FP), DX
	MOVQ stride+16(FP), R8
	MOVQ x+24(FP), DI
	MOVQ fx+32(FP), R9
	MOVQ fy+40(FP), R10
	TESTQ CX, CX
	JLE done
	TESTQ DX, DX
	JLE done
	VMOVSS fz+48(FP), X3
	SHLQ $2, R8
	MOVQ CX, R11
	ANDQ $-8, R11

row:
	VMULSS (R10), X3, X2
	VBROADCASTSS X2, Y1
	XORQ SI, SI
	TESTQ R11, R11
	JEQ tail
	PCALIGN $32

lanes:
	VMULPS (R9)(SI*4), Y1, Y0
	VMULPS (DI)(SI*4), Y0, Y0
	VMOVUPS Y0, (DI)(SI*4)
	ADDQ $8, SI
	CMPQ SI, R11
	JLT lanes

tail:
	CMPQ SI, CX
	JGE next

one:
	VMOVSS (R9)(SI*4), X0
	VMULSS X2, X0, X0
	VMULSS (DI)(SI*4), X0, X0
	VMOVSS X0, (DI)(SI*4)
	INCQ SI
	CMPQ SI, CX
	JLT one

next:
	ADDQ R8, DI
	ADDQ $4, R10
	DECQ DX
	JNZ row
	VZEROUPPER

done:
	RET

#include "textflag.h"

// The 8-lane body of FusedStress (DESIGN.md §9): each lane evaluates the Go
// expression tree of rows.go in its association order, one rounding per
// operation and no FMA, so a lane stores what the Go loop stores for that
// cell. Every operand is the 8 lanes at cell SI of one window the Go side
// sliced; SI runs over [0, n) in steps of 8. The Go body stores each stress
// once for the elastic update and again for the memory variable; here the
// elastic value stays in a register between the two, which stores the same
// bits.
//
// Registers across the loop: Y15 = c1, Y14 = c2, Y13 = dth, Y12 = am and
// Y11 = cm, the row's lane vectors (a chunk starts at an even cell, so every
// chunk of a row sees the same parity pattern).

// LOAD sets dst to the 8 lanes of window p at cell SI.
#define LOAD(p, dst) MOVQ p, AX; VMOVUPS (AX)(SI*4), dst

// DIFF sets dst to c*(a-b).
#define DIFF(c, a, b, dst) \
	MOVQ a, AX; \
	MOVQ b, BX; \
	VMOVUPS (AX)(SI*4), dst; \
	VSUBPS (BX)(SI*4), dst, dst; \
	VMULPS dst, c, dst

// ADDDIFF sets acc to acc + c*(a-b), through tmp.
#define ADDDIFF(c, a, b, acc, tmp) DIFF(c, a, b, tmp); VADDPS tmp, acc, acc

// NSUM sets dst to p + dth*(l2m*e + lam*(f+g)), the elastic update of a
// normal stress, with l2m in Y6 and lam in Y7, through Y9 and Y10.
#define NSUM(p, e, f, g, dst) \
	VMULPS e, Y6, Y9; \
	VADDPS g, f, Y10; \
	VMULPS Y10, Y7, Y10; \
	VADDPS Y10, Y9, Y9; \
	VMULPS Y9, Y13, Y9; \
	LOAD(p, dst); \
	VADDPS Y9, dst, dst

// NMEM advances the memory variable z of the normal stress held in s, with
// strain increment ae (clobbered), dlam in Y6, dl2m in Y7 and the trace in
// Y8: zn = am*z + cm*(dl2m*ae + trace - dlam*ae), s += zn - z. It stores zn
// into z and s into p, through Y9 and Y10.
#define NMEM(s, ae, z, p) \
	VMULPS ae, Y7, Y9; \
	VADDPS Y8, Y9, Y9; \
	VMULPS ae, Y6, Y10; \
	VSUBPS Y10, Y9, Y9; \
	VMULPS Y9, Y11, Y9; \
	LOAD(z, Y10); \
	VMULPS Y10, Y12, ae; \
	VADDPS Y9, ae, ae; \
	VMOVUPS ae, (AX)(SI*4); \
	VSUBPS Y10, ae, Y10; \
	VADDPS Y10, s, s; \
	MOVQ p, AX; \
	VMOVUPS s, (AX)(SI*4)

// SSTEP advances the shear stress p with derivative sum d, modulus mu and
// memory variable z, dmu in Y4: p += dth*mu*d, then zn = am*z +
// cm*(dmu*(dth*d)) and p += zn - z. It stores zn into z and the stress into
// p, through Y1, Y2, Y3 and Y5.
#define SSTEP(mu, p, z, d) \
	MOVQ mu, AX; \
	VMULPS (AX)(SI*4), Y13, Y1; \
	VMULPS d, Y1, Y1; \
	LOAD(p, Y2); \
	VADDPS Y1, Y2, Y2; \
	VMULPS d, Y13, Y3; \
	VMULPS Y3, Y4, Y3; \
	VMULPS Y3, Y11, Y3; \
	LOAD(z, Y5); \
	VMULPS Y5, Y12, Y1; \
	VADDPS Y3, Y1, Y1; \
	VMOVUPS Y1, (AX)(SI*4); \
	VSUBPS Y5, Y1, Y5; \
	VADDPS Y5, Y2, Y2; \
	MOVQ p, AX; \
	VMOVUPS Y2, (AX)(SI*4)

// func fusedStressRow8(n int, dth, c1, c2 float32, am, cm *float32, uc, ... *float32)
TEXT ·fusedStressRow8(SB), NOSPLIT, $0-432
	MOVQ n+0(FP), CX
	TESTQ CX, CX
	JLE done
	VBROADCASTSS dth+8(FP), Y13
	VBROADCASTSS c1+12(FP), Y15
	VBROADCASTSS c2+16(FP), Y14
	MOVQ am+24(FP), AX
	VMOVUPS (AX), Y12
	MOVQ cm+32(FP), AX
	VMOVUPS (AX), Y11
	XORQ SI, SI
	PCALIGN $32

loop:
	// Normal strains exx, eyy, ezz and the elastic normal stresses.
	DIFF(Y15, uc+40(FP), um1x+56(FP), Y0)
	ADDDIFF(Y14, up1x+64(FP), um2x+48(FP), Y0, Y3)
	DIFF(Y15, vc+120(FP), vm1y+160(FP), Y1)
	ADDDIFF(Y14, vp1y+168(FP), vm2y+152(FP), Y1, Y3)
	DIFF(Y15, wc+200(FP), wm1z+264(FP), Y2)
	ADDDIFF(Y14, wp1z+272(FP), wm2z+256(FP), Y2, Y3)
	LOAD(l2m+336(FP), Y6)
	LOAD(lam+328(FP), Y7)
	NSUM(xx+280(FP), Y0, Y1, Y2, Y3)
	NSUM(yy+288(FP), Y1, Y0, Y2, Y4)
	NSUM(zz+296(FP), Y2, Y0, Y1, Y5)

	// Strain increments aexx, aeyy, aezz, dl2m = dlam + 2*dmu, trace.
	VMULPS Y0, Y13, Y0
	VMULPS Y1, Y13, Y1
	VMULPS Y2, Y13, Y2
	LOAD(dlam+416(FP), Y6)
	LOAD(dmu+424(FP), Y8)
	VADDPS Y8, Y8, Y8
	VADDPS Y8, Y6, Y7
	VADDPS Y1, Y0, Y8
	VADDPS Y2, Y8, Y8
	VMULPS Y8, Y6, Y8
	NMEM(Y3, Y0, zxx+368(FP), xx+280(FP))
	NMEM(Y4, Y1, zyy+376(FP), yy+288(FP))
	NMEM(Y5, Y2, zzz+384(FP), zz+296(FP))

	LOAD(dmu+424(FP), Y4)
	DIFF(Y15, up1y+80(FP), uc+40(FP), Y0) // dxy
	ADDDIFF(Y14, up2y+88(FP), um1y+72(FP), Y0, Y1)
	ADDDIFF(Y15, vp1x+136(FP), vc+120(FP), Y0, Y1)
	ADDDIFF(Y14, vp2x+144(FP), vm1x+128(FP), Y0, Y1)
	SSTEP(mxy+344(FP), xy+304(FP), zxy+392(FP), Y0)

	DIFF(Y15, up1z+104(FP), uc+40(FP), Y0) // dxz
	ADDDIFF(Y14, up2z+112(FP), um1z+96(FP), Y0, Y1)
	ADDDIFF(Y15, wp1x+216(FP), wc+200(FP), Y0, Y1)
	ADDDIFF(Y14, wp2x+224(FP), wm1x+208(FP), Y0, Y1)
	SSTEP(mxz+352(FP), xz+312(FP), zxz+400(FP), Y0)

	DIFF(Y15, vp1z+184(FP), vc+120(FP), Y0) // dyz
	ADDDIFF(Y14, vp2z+192(FP), vm1z+176(FP), Y0, Y1)
	ADDDIFF(Y15, wp1y+240(FP), wc+200(FP), Y0, Y1)
	ADDDIFF(Y14, wp2y+248(FP), wm1y+232(FP), Y0, Y1)
	SSTEP(myz+360(FP), yz+320(FP), zyz+408(FP), Y0)

	ADDQ $8, SI
	CMPQ SI, CX
	JLT loop
	VZEROUPPER

done:
	RET

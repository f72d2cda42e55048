#include "textflag.h"

// The 8-lane bodies of velocityRows and stressRows (DESIGN.md §9). Each lane
// evaluates the Go expression tree of rows.go in its association order, one
// rounding per operation and no FMA, so a lane stores what the Go loop stores
// for that cell. Every operand is the 8 lanes at cell SI of one window the Go
// side sliced; SI runs over [0, n) in steps of 8.
//
// Registers across the loop: Y15 = c1, Y14 = c2, Y13 = dth, and in the
// velocity body Y12 = the Quiesce floor. Every instruction between the first
// YMM write and VZEROUPPER is VEX-encoded: one legacy SSE instruction there
// (a MOVQ to X12 after the broadcasts) made the velocity body 1.8× slower on
// a 2-core Intel Xeon with AVX-512.

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

// QUIESCE is fd.Quiesce on 8 lanes: x becomes +0 where its bits shifted left
// by one are below the floor's (an unsigned compare, so the sign drops out
// and ±Inf and NaN pass), through t and u.
#define QUIESCE(x, t, u) \
	VPSLLD $1, x, t; \
	VPMAXUD Y12, t, u; \
	VPCMPEQD u, t, t; \
	VPAND x, t, x

// VSTEP stores p + dth*b*sum into window p through Quiesce, through t and u.
#define VSTEP(b, p, sum, t, u) \
	MOVQ b, AX; \
	VMULPS (AX)(SI*4), Y13, t; \
	VMULPS sum, t, t; \
	MOVQ p, AX; \
	VMOVUPS (AX)(SI*4), u; \
	VADDPS t, u, u; \
	QUIESCE(u, sum, t); \
	VMOVUPS u, (AX)(SI*4)

// func velocityRow8(n int, dth, c1, c2 float32, u, v, w, bx, by, bz, ... *float32)
TEXT ·velocityRow8(SB), NOSPLIT, $0-336
	MOVQ n+0(FP), CX
	TESTQ CX, CX
	JLE vdone
	VBROADCASTSS dth+8(FP), Y13
	VBROADCASTSS c1+12(FP), Y15
	VBROADCASTSS c2+16(FP), Y14
	MOVL $0x1b000000, AX // quiescenceFloor2
	VMOVD AX, X12
	VPBROADCASTD X12, Y12
	XORQ SI, SI
	PCALIGN $32

vloop:
	// vx
	DIFF(Y15, xxp1x+88(FP), xxc+72(FP), Y0)
	ADDDIFF(Y14, xxp2x+96(FP), xxm1x+80(FP), Y0, Y1)
	ADDDIFF(Y15, xyc+104(FP), xym1y+144(FP), Y0, Y1)
	ADDDIFF(Y14, xyp1y+152(FP), xym2y+136(FP), Y0, Y1)
	ADDDIFF(Y15, xzc+160(FP), xzm1z+200(FP), Y0, Y1)
	ADDDIFF(Y14, xzp1z+208(FP), xzm2z+192(FP), Y0, Y1)
	VSTEP(bx+48(FP), u+24(FP), Y0, Y1, Y2)

	// vy
	DIFF(Y15, xyc+104(FP), xym1x+120(FP), Y3)
	ADDDIFF(Y14, xyp1x+128(FP), xym2x+112(FP), Y3, Y4)
	ADDDIFF(Y15, yyp1y+232(FP), yyc+216(FP), Y3, Y4)
	ADDDIFF(Y14, yyp2y+240(FP), yym1y+224(FP), Y3, Y4)
	ADDDIFF(Y15, yzc+248(FP), yzm1z+288(FP), Y3, Y4)
	ADDDIFF(Y14, yzp1z+296(FP), yzm2z+280(FP), Y3, Y4)
	VSTEP(by+56(FP), v+32(FP), Y3, Y4, Y5)

	// vz
	DIFF(Y15, xzc+160(FP), xzm1x+176(FP), Y6)
	ADDDIFF(Y14, xzp1x+184(FP), xzm2x+168(FP), Y6, Y7)
	ADDDIFF(Y15, yzc+248(FP), yzm1y+264(FP), Y6, Y7)
	ADDDIFF(Y14, yzp1y+272(FP), yzm2y+256(FP), Y6, Y7)
	ADDDIFF(Y15, zzp1z+320(FP), zzc+304(FP), Y6, Y7)
	ADDDIFF(Y14, zzp2z+328(FP), zzm1z+312(FP), Y6, Y7)
	VSTEP(bz+64(FP), w+40(FP), Y6, Y7, Y8)

	ADDQ $8, SI
	CMPQ SI, CX
	JLT vloop
	VZEROUPPER

vdone:
	RET

// NSTEP stores p + dth*(l2m*e + lam*(f+g)) into window p, with l2m in Y6
// and lam in Y7, through Y3 and Y4.
#define NSTEP(p, e, f, g) \
	VMULPS e, Y6, Y3; \
	VADDPS g, f, Y4; \
	VMULPS Y4, Y7, Y4; \
	VADDPS Y4, Y3, Y3; \
	VMULPS Y3, Y13, Y3; \
	MOVQ p, AX; \
	VMOVUPS (AX)(SI*4), Y4; \
	VADDPS Y3, Y4, Y4; \
	VMOVUPS Y4, (AX)(SI*4)

// SSTEP stores p + dth*mu*d into window p, through Y3 and Y4.
#define SSTEP(mu, p, d) \
	MOVQ mu, AX; \
	VMULPS (AX)(SI*4), Y13, Y3; \
	VMULPS d, Y3, Y3; \
	MOVQ p, AX; \
	VMOVUPS (AX)(SI*4), Y4; \
	VADDPS Y3, Y4, Y4; \
	VMOVUPS Y4, (AX)(SI*4)

// func stressRow8(n int, dth, c1, c2 float32, uc, um2x, ... *float32)
TEXT ·stressRow8(SB), NOSPLIT, $0-352
	MOVQ n+0(FP), CX
	TESTQ CX, CX
	JLE sdone
	VBROADCASTSS dth+8(FP), Y13
	VBROADCASTSS c1+12(FP), Y15
	VBROADCASTSS c2+16(FP), Y14
	XORQ SI, SI
	PCALIGN $32

sloop:
	DIFF(Y15, uc+24(FP), um1x+40(FP), Y0)       // exx
	ADDDIFF(Y14, up1x+48(FP), um2x+32(FP), Y0, Y3)
	DIFF(Y15, vc+104(FP), vm1y+144(FP), Y1)     // eyy
	ADDDIFF(Y14, vp1y+152(FP), vm2y+136(FP), Y1, Y3)
	DIFF(Y15, wc+184(FP), wm1z+248(FP), Y2)     // ezz
	ADDDIFF(Y14, wp1z+256(FP), wm2z+240(FP), Y2, Y3)
	LOAD(l2m+320(FP), Y6)
	LOAD(lam+312(FP), Y7)
	NSTEP(xx+264(FP), Y0, Y1, Y2)
	NSTEP(yy+272(FP), Y1, Y0, Y2)
	NSTEP(zz+280(FP), Y2, Y0, Y1)

	DIFF(Y15, up1y+64(FP), uc+24(FP), Y0)       // xy
	ADDDIFF(Y14, up2y+72(FP), um1y+56(FP), Y0, Y3)
	ADDDIFF(Y15, vp1x+120(FP), vc+104(FP), Y0, Y3)
	ADDDIFF(Y14, vp2x+128(FP), vm1x+112(FP), Y0, Y3)
	SSTEP(mxy+328(FP), xy+288(FP), Y0)

	DIFF(Y15, up1z+88(FP), uc+24(FP), Y0)       // xz
	ADDDIFF(Y14, up2z+96(FP), um1z+80(FP), Y0, Y3)
	ADDDIFF(Y15, wp1x+200(FP), wc+184(FP), Y0, Y3)
	ADDDIFF(Y14, wp2x+208(FP), wm1x+192(FP), Y0, Y3)
	SSTEP(mxz+336(FP), xz+296(FP), Y0)

	DIFF(Y15, vp1z+168(FP), vc+104(FP), Y0)     // yz
	ADDDIFF(Y14, vp2z+176(FP), vm1z+160(FP), Y0, Y3)
	ADDDIFF(Y15, wp1y+224(FP), wc+184(FP), Y0, Y3)
	ADDDIFF(Y14, wp2y+232(FP), wm1y+216(FP), Y0, Y3)
	SSTEP(myz+344(FP), yz+304(FP), Y0)

	ADDQ $8, SI
	CMPQ SI, CX
	JLT sloop
	VZEROUPPER

sdone:
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

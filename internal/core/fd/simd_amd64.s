#include "textflag.h"

// The 8-lane tile walkers of velocityRows and stressRows (DESIGN.md §9).
// Each lane evaluates the Go expression tree of rows.go in its association
// order, one rounding per operation and no FMA, so a lane stores what the Go
// loop stores for that cell. One call sweeps a whole tile: nk planes of nj
// rows of n cells. Every operand is the 8 lanes at byte cursor SI of one
// window the Go side sliced for the tile's first row; SI steps 32 bytes a
// chunk, dy·4 bytes a row and dz·4 bytes a plane. A row's ⌊n/8⌋ full chunks
// run the cell program with plain loads and stores, its last n mod 8 cells
// the same program under the lane mask Y10, through VMASKMOVPS: masked lanes
// load +0 and are never stored, so nothing past the row is read or written.
//
// Registers across the walk: Y15 = c1, Y14 = c2, Y13 = dth, Y10 = the tail
// mask, Y9 the tail's load temporary, and in the velocity walker Y12 = the
// Quiesce floor. SI = the cursor, DX = the row's first byte, CX = the end of
// its full chunks, R8 = rows left in the plane, R9 = planes left, R10 = the
// row step, R11 = the plane step less nj row steps, R12 = the full chunks'
// bytes a row, R13 = n mod 8. Every instruction between the first YMM write
// and VZEROUPPER is VEX-encoded: one legacy SSE instruction there (a MOVQ to
// X12 after the broadcasts) made the velocity body 1.8× slower on a 2-core
// Intel Xeon with AVX-512.

// tailMask<>+32-4t is the mask of a t-cell tail: t lanes of all ones, then
// zeros.
DATA tailMask<>+0(SB)/8, $-1
DATA tailMask<>+8(SB)/8, $-1
DATA tailMask<>+16(SB)/8, $-1
DATA tailMask<>+24(SB)/8, $-1
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// Window access, full chunk: LDF sets dst to window p, OPF sets dst to
// op(src, window p) and STF stores src into the window LDF last loaded.
#define LDF(p, dst) MOVQ p, AX; VMOVUPS (AX)(SI*1), dst
#define OPF(op, p, src, dst) MOVQ p, BX; op (BX)(SI*1), src, dst
#define STF(src) VMOVUPS src, (AX)(SI*1)

// Window access, masked tail: the same three under the mask in Y10.
#define LDM(p, dst) MOVQ p, AX; VMASKMOVPS (AX)(SI*1), Y10, dst
#define OPM(op, p, src, dst) MOVQ p, BX; VMASKMOVPS (BX)(SI*1), Y10, Y9; op Y9, src, dst
#define STM(src) VMASKMOVPS src, Y10, (AX)(SI*1)

// DIFF sets dst to c*(a-b).
#define DIFF(LD, OP, c, a, b, dst) LD(a, dst); OP(VSUBPS, b, dst, dst); VMULPS dst, c, dst

// ADDDIFF sets acc to acc + c*(a-b), through tmp.
#define ADDDIFF(LD, OP, c, a, b, acc, tmp) DIFF(LD, OP, c, a, b, tmp); VADDPS tmp, acc, acc

// TILE sets up a walk from n in R12, nj in R8, nk in R9, dy in R10 and dz
// in R11: the strides in bytes, the full chunks' bytes, n mod 8 in R13 and
// DX at the first row. It returns at once from an empty tile.
#define TILE \
	TESTQ R12, R12; \
	JLE done; \
	TESTQ R8, R8; \
	JLE done; \
	TESTQ R9, R9; \
	JLE done; \
	SHLQ $2, R10; \
	SHLQ $2, R11; \
	IMULQ R10, R8; \
	SUBQ R8, R11; \
	MOVQ R12, R13; \
	ANDQ $7, R13; \
	ANDQ $-8, R12; \
	SHLQ $2, R12; \
	XORQ DX, DX

// MASK sets dst to the mask of an R13-cell tail.
#define MASK(dst) MOVQ R13, AX; NEGQ AX; LEAQ tailMask<>+32(SB), BX; VMOVUPS (BX)(AX*4), dst

// QUIESCE is fd.Quiesce on 8 lanes: x becomes +0 where its bits shifted left
// by one are below the floor's (an unsigned compare, so the sign drops out
// and ±Inf and NaN pass), through t and u.
#define QUIESCE(x, t, u) \
	VPSLLD $1, x, t; \
	VPMAXUD Y12, t, u; \
	VPCMPEQD u, t, t; \
	VPAND x, t, x

// VSTEP stores p + dth*b*sum into window p through Quiesce, through t and u.
#define VSTEP(LD, OP, ST, b, p, sum, t, u) \
	OP(VMULPS, b, Y13, t); \
	VMULPS sum, t, t; \
	LD(p, u); \
	VADDPS t, u, u; \
	QUIESCE(u, sum, t); \
	ST(u)

// func velocityTile(n, nj, nk, dy, dz int, dth, c1, c2 float32, u, v, w, bx, by, bz, ... *float32)
TEXT ·velocityTile(SB), NOSPLIT, $0-368

// VELOCITY is velocityRows' cell program on the 8 lanes at SI, defined
// inside the TEXT block so that vet's asmdecl checks its frame offsets.
#define VELOCITY(LD, OP, ST) \
	DIFF(LD, OP, Y15, xxp1x+120(FP), xxc+104(FP), Y0); \
	ADDDIFF(LD, OP, Y14, xxp2x+128(FP), xxm1x+112(FP), Y0, Y1); \
	ADDDIFF(LD, OP, Y15, xyc+136(FP), xym1y+176(FP), Y0, Y1); \
	ADDDIFF(LD, OP, Y14, xyp1y+184(FP), xym2y+168(FP), Y0, Y1); \
	ADDDIFF(LD, OP, Y15, xzc+192(FP), xzm1z+232(FP), Y0, Y1); \
	ADDDIFF(LD, OP, Y14, xzp1z+240(FP), xzm2z+224(FP), Y0, Y1); \
	VSTEP(LD, OP, ST, bx+80(FP), u+56(FP), Y0, Y1, Y2); \
	DIFF(LD, OP, Y15, xyc+136(FP), xym1x+152(FP), Y3); \
	ADDDIFF(LD, OP, Y14, xyp1x+160(FP), xym2x+144(FP), Y3, Y4); \
	ADDDIFF(LD, OP, Y15, yyp1y+264(FP), yyc+248(FP), Y3, Y4); \
	ADDDIFF(LD, OP, Y14, yyp2y+272(FP), yym1y+256(FP), Y3, Y4); \
	ADDDIFF(LD, OP, Y15, yzc+280(FP), yzm1z+320(FP), Y3, Y4); \
	ADDDIFF(LD, OP, Y14, yzp1z+328(FP), yzm2z+312(FP), Y3, Y4); \
	VSTEP(LD, OP, ST, by+88(FP), v+64(FP), Y3, Y4, Y5); \
	DIFF(LD, OP, Y15, xzc+192(FP), xzm1x+208(FP), Y6); \
	ADDDIFF(LD, OP, Y14, xzp1x+216(FP), xzm2x+200(FP), Y6, Y7); \
	ADDDIFF(LD, OP, Y15, yzc+280(FP), yzm1y+296(FP), Y6, Y7); \
	ADDDIFF(LD, OP, Y14, yzp1y+304(FP), yzm2y+288(FP), Y6, Y7); \
	ADDDIFF(LD, OP, Y15, zzp1z+352(FP), zzc+336(FP), Y6, Y7); \
	ADDDIFF(LD, OP, Y14, zzp2z+360(FP), zzm1z+344(FP), Y6, Y7); \
	VSTEP(LD, OP, ST, bz+96(FP), w+72(FP), Y6, Y7, Y8)

	MOVQ n+0(FP), R12
	MOVQ nj+8(FP), R8
	MOVQ nk+16(FP), R9
	MOVQ dy+24(FP), R10
	MOVQ dz+32(FP), R11
	TILE
	MASK(Y10)
	VBROADCASTSS dth+40(FP), Y13
	VBROADCASTSS c1+44(FP), Y15
	VBROADCASTSS c2+48(FP), Y14
	MOVL $0x1b000000, AX // quiescenceFloor2
	VMOVD AX, X12
	VPBROADCASTD X12, Y12

vplane:
	MOVQ nj+8(FP), R8

vrow:
	MOVQ DX, SI
	LEAQ (DX)(R12*1), CX
	CMPQ SI, CX
	JGE vtail
	PCALIGN $32

vfull:
	VELOCITY(LDF, OPF, STF)
	ADDQ $32, SI
	CMPQ SI, CX
	JLT vfull

vtail:
	TESTQ R13, R13
	JEQ vnext
	VELOCITY(LDM, OPM, STM)

vnext:
	ADDQ R10, DX
	DECQ R8
	JNZ vrow
	ADDQ R11, DX
	DECQ R9
	JNZ vplane
	VZEROUPPER

done:
	RET

// NSTEP stores p + dth*(l2m*e + lam*(f+g)) into window p, with l2m in Y6
// and lam in Y7, through Y3 and Y4.
#define NSTEP(LD, ST, p, e, f, g) \
	VMULPS e, Y6, Y3; \
	VADDPS g, f, Y4; \
	VMULPS Y4, Y7, Y4; \
	VADDPS Y4, Y3, Y3; \
	VMULPS Y3, Y13, Y3; \
	LD(p, Y4); \
	VADDPS Y3, Y4, Y4; \
	ST(Y4)

// SSTEP stores p + dth*mu*d into window p, through Y3 and Y4.
#define SSTEP(LD, OP, ST, mu, p, d) \
	OP(VMULPS, mu, Y13, Y3); \
	VMULPS d, Y3, Y3; \
	LD(p, Y4); \
	VADDPS Y3, Y4, Y4; \
	ST(Y4)

// The tapered stores, full chunk and masked tail: src times the chunk's
// taper in Y8, then STF's or STM's store.
#define STFT(src) VMULPS Y8, src, src; STF(src)
#define STMT(src) VMULPS Y8, src, src; STM(src)

// func stressTile(n, nj, nk, dy, dz int, dth, c1, c2 float32, uc, um2x, ... *float32, fx, fy, fz *float32)
//
// With fx non-nil the walk is tapered: every stress is multiplied by
// α = fx[i]·fyz just before its store, fyz = fy[r]·fz[q] formed once a row,
// in that order and in float32 as the sponge forms them. X11 = the plane's
// fz, DI = fy at the row, Y5 = fyz on 8 lanes, R14 = fx less the row's first
// byte (fx at R14+SI), Y8 = the chunk's α; the tail loads fx under the mask,
// since fx ends with the row.
TEXT ·stressTile(SB), NOSPLIT, $0-408

// STRESS is stressRows' cell program on the 8 lanes at SI, inside its
// TEXT block as VELOCITY is.
#define STRESS(LD, OP, ST) \
	DIFF(LD, OP, Y15, uc+56(FP), um1x+72(FP), Y0); \
	ADDDIFF(LD, OP, Y14, up1x+80(FP), um2x+64(FP), Y0, Y3); \
	DIFF(LD, OP, Y15, vc+136(FP), vm1y+176(FP), Y1); \
	ADDDIFF(LD, OP, Y14, vp1y+184(FP), vm2y+168(FP), Y1, Y3); \
	DIFF(LD, OP, Y15, wc+216(FP), wm1z+280(FP), Y2); \
	ADDDIFF(LD, OP, Y14, wp1z+288(FP), wm2z+272(FP), Y2, Y3); \
	LD(l2m+352(FP), Y6); \
	LD(lam+344(FP), Y7); \
	NSTEP(LD, ST, xx+296(FP), Y0, Y1, Y2); \
	NSTEP(LD, ST, yy+304(FP), Y1, Y0, Y2); \
	NSTEP(LD, ST, zz+312(FP), Y2, Y0, Y1); \
	DIFF(LD, OP, Y15, up1y+96(FP), uc+56(FP), Y0); \
	ADDDIFF(LD, OP, Y14, up2y+104(FP), um1y+88(FP), Y0, Y3); \
	ADDDIFF(LD, OP, Y15, vp1x+152(FP), vc+136(FP), Y0, Y3); \
	ADDDIFF(LD, OP, Y14, vp2x+160(FP), vm1x+144(FP), Y0, Y3); \
	SSTEP(LD, OP, ST, mxy+360(FP), xy+320(FP), Y0); \
	DIFF(LD, OP, Y15, up1z+120(FP), uc+56(FP), Y0); \
	ADDDIFF(LD, OP, Y14, up2z+128(FP), um1z+112(FP), Y0, Y3); \
	ADDDIFF(LD, OP, Y15, wp1x+232(FP), wc+216(FP), Y0, Y3); \
	ADDDIFF(LD, OP, Y14, wp2x+240(FP), wm1x+224(FP), Y0, Y3); \
	SSTEP(LD, OP, ST, mxz+368(FP), xz+328(FP), Y0); \
	DIFF(LD, OP, Y15, vp1z+200(FP), vc+136(FP), Y0); \
	ADDDIFF(LD, OP, Y14, vp2z+208(FP), vm1z+192(FP), Y0, Y3); \
	ADDDIFF(LD, OP, Y15, wp1y+256(FP), wc+216(FP), Y0, Y3); \
	ADDDIFF(LD, OP, Y14, wp2y+264(FP), wm1y+248(FP), Y0, Y3); \
	SSTEP(LD, OP, ST, myz+376(FP), yz+336(FP), Y0)

	MOVQ n+0(FP), R12
	MOVQ nj+8(FP), R8
	MOVQ nk+16(FP), R9
	MOVQ dy+24(FP), R10
	MOVQ dz+32(FP), R11
	TILE
	MASK(Y10)
	VBROADCASTSS dth+40(FP), Y13
	VBROADCASTSS c1+44(FP), Y15
	VBROADCASTSS c2+48(FP), Y14
	MOVQ fx+384(FP), AX
	TESTQ AX, AX
	JNE tplane

splane:
	MOVQ nj+8(FP), R8

srow:
	MOVQ DX, SI
	LEAQ (DX)(R12*1), CX
	CMPQ SI, CX
	JGE stail
	PCALIGN $32

sfull:
	STRESS(LDF, OPF, STF)
	ADDQ $32, SI
	CMPQ SI, CX
	JLT sfull

stail:
	TESTQ R13, R13
	JEQ snext
	STRESS(LDM, OPM, STM)

snext:
	ADDQ R10, DX
	DECQ R8
	JNZ srow
	ADDQ R11, DX
	DECQ R9
	JNZ splane
	VZEROUPPER

done:
	RET

tplane:
	MOVQ nj+8(FP), R8
	MOVQ nk+16(FP), AX
	SUBQ R9, AX
	MOVQ fz+400(FP), BX
	VMOVSS (BX)(AX*4), X11
	MOVQ fy+392(FP), DI

trow:
	VMOVSS (DI), X5
	VMULSS X11, X5, X5
	VBROADCASTSS X5, Y5
	ADDQ $4, DI
	MOVQ fx+384(FP), R14
	SUBQ DX, R14
	MOVQ DX, SI
	LEAQ (DX)(R12*1), CX
	CMPQ SI, CX
	JGE ttail
	PCALIGN $32

tfull:
	VMOVUPS (R14)(SI*1), Y8
	VMULPS Y5, Y8, Y8
	STRESS(LDF, OPF, STFT)
	ADDQ $32, SI
	CMPQ SI, CX
	JLT tfull

ttail:
	TESTQ R13, R13
	JEQ tnext
	VMASKMOVPS (R14)(SI*1), Y10, Y8
	VMULPS Y5, Y8, Y8
	STRESS(LDM, OPM, STMT)

tnext:
	ADDQ R10, DX
	DECQ R8
	JNZ trow
	ADDQ R11, DX
	DECQ R9
	JNZ tplane
	VZEROUPPER
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

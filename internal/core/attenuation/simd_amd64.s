#include "textflag.h"

// The 8-lane tile walker of FusedStress (DESIGN.md §9): each lane evaluates
// the Go expression tree of rows.go in its association order, one rounding
// per operation and no FMA, so a lane stores what the Go loop stores for that
// cell. One call sweeps a whole tile, as fd's walkers do (fd/simd_amd64.s):
// every operand is the 8 lanes at byte cursor SI of one window the Go side
// sliced for the tile's first row, SI steps 32 bytes a chunk, dy·4 bytes a
// row and dz·4 bytes a plane, and a row's last n mod 8 cells run the same
// cell program under a lane mask through VMASKMOVPS. The Go body stores each
// stress once for the elastic update and again for the memory variable; here
// the elastic value stays in a register between the two, which stores the
// same bits.
//
// The recursion coefficients are a table of 2×4 lane vectors, am then cm,
// one for each (j, k) parity of a row relative to the tile's first; each
// alternates its two mechanisms with the x parity from the row's first cell
// (a chunk starts at an even cell, so every chunk of a row sees the same
// pattern). R14 is the row's offset into the table. A full chunk reads the
// row's am in Y12 and cm in Y11; the masked tail, which needs Y11 for the
// mask and Y12 for its load temporary, reads them from the table.
//
// Registers across the walk: Y15 = c1, Y14 = c2, Y13 = dth, DI = the
// coefficient table, and the walk's GP registers as in fd's walkers: SI =
// the cursor, DX = the row's first byte, CX = the end of its full chunks,
// R8 = rows left in the plane, R9 = planes left, R10 = the row step, R11 =
// the plane step less nj row steps, R12 = the full chunks' bytes a row, R13
// = n mod 8.

// tailMask<>+32-4t is the mask of a t-cell tail: t lanes of all ones, then
// zeros.
DATA tailMask<>+0(SB)/8, $-1
DATA tailMask<>+8(SB)/8, $-1
DATA tailMask<>+16(SB)/8, $-1
DATA tailMask<>+24(SB)/8, $-1
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// Window access, full chunk: LDF sets dst to window p, OPF sets dst to
// op(src, window p) and STF stores src into the window AX points at.
#define LDF(p, dst) MOVQ p, AX; VMOVUPS (AX)(SI*1), dst
#define OPF(op, p, src, dst) MOVQ p, BX; op (BX)(SI*1), src, dst
#define STF(src) VMOVUPS src, (AX)(SI*1)

// Window access, masked tail: the same three under the mask in Y11.
#define LDM(p, dst) MOVQ p, AX; VMASKMOVPS (AX)(SI*1), Y11, dst
#define OPM(op, p, src, dst) MOVQ p, BX; VMASKMOVPS (BX)(SI*1), Y11, Y12; op Y12, src, dst
#define STM(src) VMASKMOVPS src, Y11, (AX)(SI*1)

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

// NSUM sets dst to p + dth*(l2m*e + lam*(f+g)), the elastic update of a
// normal stress, with l2m in Y6 and lam in Y7, through Y9 and Y10.
#define NSUM(LD, p, e, f, g, dst) \
	VMULPS e, Y6, Y9; \
	VADDPS g, f, Y10; \
	VMULPS Y10, Y7, Y10; \
	VADDPS Y10, Y9, Y9; \
	VMULPS Y9, Y13, Y9; \
	LD(p, dst); \
	VADDPS Y9, dst, dst

// NMEM advances the memory variable z of the normal stress held in s, with
// strain increment ae (clobbered), dlam in Y6, dl2m in Y7 and the trace in
// Y8: zn = am*z + cm*(dl2m*ae + trace - dlam*ae), s += zn - z. It stores zn
// into z through ST and s into p through STS, through Y9 and Y10. am and cm
// are finite, so their products are the same bits with the operands either
// way round.
#define NMEM(LD, ST, STS, AM, CM, s, ae, z, p) \
	VMULPS ae, Y7, Y9; \
	VADDPS Y8, Y9, Y9; \
	VMULPS ae, Y6, Y10; \
	VSUBPS Y10, Y9, Y9; \
	VMULPS CM, Y9, Y9; \
	LD(z, Y10); \
	VMULPS AM, Y10, ae; \
	VADDPS Y9, ae, ae; \
	ST(ae); \
	VSUBPS Y10, ae, Y10; \
	VADDPS Y10, s, s; \
	MOVQ p, AX; \
	STS(s)

// SSTEP advances the shear stress p with derivative sum d, modulus mu and
// memory variable z, dmu in Y4: p += dth*mu*d, then zn = am*z +
// cm*(dmu*(dth*d)) and p += zn - z. It stores zn into z through ST and the
// stress into p through STS, through Y1, Y2, Y3 and Y5.
#define SSTEP(LD, OP, ST, STS, AM, CM, mu, p, z, d) \
	OP(VMULPS, mu, Y13, Y1); \
	VMULPS d, Y1, Y1; \
	LD(p, Y2); \
	VADDPS Y1, Y2, Y2; \
	VMULPS d, Y13, Y3; \
	VMULPS Y3, Y4, Y3; \
	VMULPS CM, Y3, Y3; \
	LD(z, Y5); \
	VMULPS AM, Y5, Y1; \
	VADDPS Y3, Y1, Y1; \
	ST(Y1); \
	VSUBPS Y5, Y1, Y5; \
	VADDPS Y5, Y2, Y2; \
	MOVQ p, AX; \
	STS(Y2)

// The tapered stress stores, full chunk and masked tail: src times the
// chunk's taper, spilled to (SP), then STF's or STM's store.
#define STFT(src) VMULPS (SP), src, src; STF(src)
#define STMT(src) VMULPS (SP), src, src; STM(src)

// ALPHA spills the chunk's taper α = fx·fyz to (SP), fx loaded at the cursor
// through LD (fx less the row's first byte in AX) and fyz from 32(SP), through
// Y0, which the cell program loads first.
#define ALPHA(LD) \
	SUBQ DX, AX; \
	LD(Y0); \
	VMULPS 32(SP), Y0, Y0; \
	VMOVUPS Y0, (SP)
#define FXF(dst) VMOVUPS (AX)(SI*1), dst
#define FXM(dst) VMASKMOVPS (AX)(SI*1), Y11, dst

// func fusedStressTile(n, nj, nk, dy, dz int, dth, c1, c2 float32, coef *float32, uc, ... *float32, fx, fy, fz *float32)
//
// With fx non-nil the walk is tapered: every stress, not the memory
// variables, is multiplied by α = fx[i]·fyz just before its store, fyz =
// fy[r]·fz[q] formed once a row, in that order and in float32 as the sponge
// forms them. No register is free for them: a row spills fyz on 8 lanes to
// 32(SP), a chunk α to (SP), the fx, fy and fz cursors are the argument
// slots indexed by the byte cursor, the row and the plane, and the tail loads
// fx under the mask, since fx ends with the row.
TEXT ·fusedStressTile(SB), NOSPLIT, $64-480

// FUSED is FusedStress's cell program on the 8 lanes at SI, with the row's
// coefficients in AM and CM, storing memory variables through ST and
// stresses through STS; defined inside the TEXT block so that vet's asmdecl
// checks its frame offsets.
#define FUSED(LD, OP, ST, STS, AM, CM) \
	DIFF(LD, OP, Y15, uc+64(FP), um1x+80(FP), Y0); \
	ADDDIFF(LD, OP, Y14, up1x+88(FP), um2x+72(FP), Y0, Y3); \
	DIFF(LD, OP, Y15, vc+144(FP), vm1y+184(FP), Y1); \
	ADDDIFF(LD, OP, Y14, vp1y+192(FP), vm2y+176(FP), Y1, Y3); \
	DIFF(LD, OP, Y15, wc+224(FP), wm1z+288(FP), Y2); \
	ADDDIFF(LD, OP, Y14, wp1z+296(FP), wm2z+280(FP), Y2, Y3); \
	LD(l2m+360(FP), Y6); \
	LD(lam+352(FP), Y7); \
	NSUM(LD, xx+304(FP), Y0, Y1, Y2, Y3); \
	NSUM(LD, yy+312(FP), Y1, Y0, Y2, Y4); \
	NSUM(LD, zz+320(FP), Y2, Y0, Y1, Y5); \
	VMULPS Y0, Y13, Y0; \
	VMULPS Y1, Y13, Y1; \
	VMULPS Y2, Y13, Y2; \
	LD(dlam+440(FP), Y6); \
	LD(dmu+448(FP), Y8); \
	VADDPS Y8, Y8, Y8; \
	VADDPS Y8, Y6, Y7; \
	VADDPS Y1, Y0, Y8; \
	VADDPS Y2, Y8, Y8; \
	VMULPS Y8, Y6, Y8; \
	NMEM(LD, ST, STS, AM, CM, Y3, Y0, zxx+392(FP), xx+304(FP)); \
	NMEM(LD, ST, STS, AM, CM, Y4, Y1, zyy+400(FP), yy+312(FP)); \
	NMEM(LD, ST, STS, AM, CM, Y5, Y2, zzz+408(FP), zz+320(FP)); \
	LD(dmu+448(FP), Y4); \
	DIFF(LD, OP, Y15, up1y+104(FP), uc+64(FP), Y0); \
	ADDDIFF(LD, OP, Y14, up2y+112(FP), um1y+96(FP), Y0, Y1); \
	ADDDIFF(LD, OP, Y15, vp1x+160(FP), vc+144(FP), Y0, Y1); \
	ADDDIFF(LD, OP, Y14, vp2x+168(FP), vm1x+152(FP), Y0, Y1); \
	SSTEP(LD, OP, ST, STS, AM, CM, mxy+368(FP), xy+328(FP), zxy+416(FP), Y0); \
	DIFF(LD, OP, Y15, up1z+128(FP), uc+64(FP), Y0); \
	ADDDIFF(LD, OP, Y14, up2z+136(FP), um1z+120(FP), Y0, Y1); \
	ADDDIFF(LD, OP, Y15, wp1x+240(FP), wc+224(FP), Y0, Y1); \
	ADDDIFF(LD, OP, Y14, wp2x+248(FP), wm1x+232(FP), Y0, Y1); \
	SSTEP(LD, OP, ST, STS, AM, CM, mxz+376(FP), xz+336(FP), zxz+424(FP), Y0); \
	DIFF(LD, OP, Y15, vp1z+208(FP), vc+144(FP), Y0); \
	ADDDIFF(LD, OP, Y14, vp2z+216(FP), vm1z+200(FP), Y0, Y1); \
	ADDDIFF(LD, OP, Y15, wp1y+264(FP), wc+224(FP), Y0, Y1); \
	ADDDIFF(LD, OP, Y14, wp2y+272(FP), wm1y+256(FP), Y0, Y1); \
	SSTEP(LD, OP, ST, STS, AM, CM, myz+384(FP), yz+344(FP), zyz+432(FP), Y0)

	MOVQ n+0(FP), R12
	MOVQ nj+8(FP), R8
	MOVQ nk+16(FP), R9
	MOVQ dy+24(FP), R10
	MOVQ dz+32(FP), R11
	TILE
	VBROADCASTSS dth+40(FP), Y13
	VBROADCASTSS c1+44(FP), Y15
	VBROADCASTSS c2+48(FP), Y14
	MOVQ coef+56(FP), DI
	XORQ R14, R14
	MOVQ fx+456(FP), AX
	TESTQ AX, AX
	JNE tplane

plane:
	MOVQ nj+8(FP), R8

row:
	MOVQ DX, SI
	LEAQ (DX)(R12*1), CX
	CMPQ SI, CX
	JGE tail
	VMOVUPS (DI)(R14*1), Y12
	VMOVUPS 128(DI)(R14*1), Y11
	PCALIGN $32

full:
	FUSED(LDF, OPF, STF, STF, Y12, Y11)
	ADDQ $32, SI
	CMPQ SI, CX
	JLT full

tail:
	TESTQ R13, R13
	JEQ next
	MASK(Y11)
	FUSED(LDM, OPM, STM, STM, (DI)(R14*1), 128(DI)(R14*1))

next:
	XORQ $32, R14 // the next row's j parity
	ADDQ R10, DX
	DECQ R8
	JNZ row
	ANDQ $64, R14 // the next plane's first row: even j, the other k parity
	XORQ $64, R14
	ADDQ R11, DX
	DECQ R9
	JNZ plane
	VZEROUPPER

done:
	RET

tplane:
	MOVQ nj+8(FP), R8

trow:
	MOVQ nj+8(FP), AX
	SUBQ R8, AX
	MOVQ fy+464(FP), BX
	VMOVSS (BX)(AX*4), X0
	MOVQ nk+16(FP), AX
	SUBQ R9, AX
	MOVQ fz+472(FP), BX
	VMULSS (BX)(AX*4), X0, X0
	VBROADCASTSS X0, Y0
	VMOVUPS Y0, 32(SP)
	MOVQ DX, SI
	LEAQ (DX)(R12*1), CX
	CMPQ SI, CX
	JGE ttail
	VMOVUPS (DI)(R14*1), Y12
	VMOVUPS 128(DI)(R14*1), Y11
	PCALIGN $32

tfull:
	MOVQ fx+456(FP), AX
	ALPHA(FXF)
	FUSED(LDF, OPF, STF, STFT, Y12, Y11)
	ADDQ $32, SI
	CMPQ SI, CX
	JLT tfull

ttail:
	TESTQ R13, R13
	JEQ tnext
	MASK(Y11)
	MOVQ fx+456(FP), AX
	ALPHA(FXM)
	FUSED(LDM, OPM, STM, STMT, (DI)(R14*1), 128(DI)(R14*1))

tnext:
	XORQ $32, R14
	ADDQ R10, DX
	DECQ R8
	JNZ trow
	ANDQ $64, R14
	XORQ $64, R14
	ADDQ R11, DX
	DECQ R9
	JNZ tplane
	VZEROUPPER
	RET

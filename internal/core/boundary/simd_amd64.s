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

// The 8-lane tile walkers of the M-PML zone sweeps (pml_rows.go, DESIGN.md
// §9), in the idiom of fd's walkers (fd/simd_amd64.s): each lane evaluates
// the Go expression tree of pml_rows.go in its association order, each
// operation's operands in source order, one rounding per operation and no
// FMA, so a lane stores what the Go loop stores for that cell. (Where two
// NaNs of different bits meet in an add, the compiled Go body keeps
// whichever operand its register allocator put first; DESIGN.md §9, "Two
// NaNs in one sum".) One call sweeps a whole zone tile, nk planes of
// nj rows of n cells; a row's ⌊n/8⌋ full chunks run the cell program with
// plain loads and stores, its last n mod 8 cells the same program under the
// lane mask Y10, through VMASKMOVPS: masked lanes load +0 and are never
// stored, so nothing past the row is read or written.
//
// Every operand is the 8 lanes at one of three byte cursors into a window the
// Go side sliced for the tile's first row: SI for the global fields and the
// medium, DI for the zone's splits, R14 for the coefficient rows. All three
// step 32 bytes a chunk; after a row each steps by its grid's row stride less
// the full chunks' bytes (R10, R11 and R13), after a plane by its plane
// stride less nj row strides (read from the frame). Each recombined sum adds
// its splits to +0 (Y11 in the stress walker), as the Go body's var s
// float32 does, so a −0 split sums to +0; the velocity splits have been
// through Quiesce, which leaves no −0, so the velocity sums start at their x
// split.
//
// Registers across the walk: Y15 = c1, Y14 = c2, Y13 = dth, Y10 = the tail
// mask, Y9 the tail's load temporary, Y12 = the Quiesce floor (velocity) and
// Y11 = +0 (stress). CX = full chunks left in the row, DX = full chunks a
// row, R8 = rows left in the plane, R9 = planes left, R12 = n mod 8. R14 is
// free in an ABI0 body: the ABIInternal caller reloads g after the call, as
// it re-zeroes X15. BP and R15 are not used. Every instruction between the
// first YMM write and VZEROUPPER is VEX-encoded.

// tailMask<>+32-4t is the mask of a t-cell tail: t lanes of all ones, then
// zeros.
DATA tailMask<>+0(SB)/8, $-1
DATA tailMask<>+8(SB)/8, $-1
DATA tailMask<>+16(SB)/8, $-1
DATA tailMask<>+24(SB)/8, $-1
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// Window access at cursor c, full chunk: LDF sets dst to window p, OPF sets
// dst to op(src, window p) and STF stores src into the window OPF last read.
#define LDF(p, c, dst) MOVQ p, BX; VMOVUPS (BX)(c*1), dst
#define OPF(op, p, c, src, dst) MOVQ p, AX; op (AX)(c*1), src, dst
#define STF(src, c) VMOVUPS src, (AX)(c*1)

// Window access, masked tail: the same three under the mask in Y10.
#define LDM(p, c, dst) MOVQ p, BX; VMASKMOVPS (BX)(c*1), Y10, dst
#define OPM(op, p, c, src, dst) MOVQ p, AX; VMASKMOVPS (AX)(c*1), Y10, Y9; op Y9, src, dst
#define STM(src, c) VMASKMOVPS src, Y10, (AX)(c*1)

// DERIV sets dst to f*(c1*(a-b) + c2*(c-d)) from global windows, through
// tmp.
#define DERIV(LD, OP, a, b, c, d, f, dst, tmp) \
	LD(a, SI, dst); \
	OP(VSUBPS, b, SI, dst, dst); \
	VMULPS dst, Y15, dst; \
	LD(c, SI, tmp); \
	OP(VSUBPS, d, SI, tmp, tmp); \
	VMULPS tmp, Y14, tmp; \
	VADDPS tmp, dst, dst; \
	VMULPS dst, f, dst

// ZONETILE sets up a walk from n in DX, nj in R8, nk in R9 and the three
// row strides in bytes in R10, R11 and R13: n mod 8 in R12, the full chunks
// a row in DX, each row stride less the full chunks' bytes and the three
// cursors at 0. It returns at once from an empty tile.
#define ZONETILE \
	TESTQ DX, DX; \
	JLE done; \
	TESTQ R8, R8; \
	JLE done; \
	TESTQ R9, R9; \
	JLE done; \
	MOVQ DX, R12; \
	ANDQ $7, R12; \
	SHRQ $3, DX; \
	MOVQ DX, AX; \
	SHLQ $5, AX; \
	SUBQ AX, R10; \
	SUBQ AX, R11; \
	SUBQ AX, R13; \
	XORQ SI, SI; \
	XORQ DI, DI; \
	XORQ R14, R14

// MASK sets dst to the mask of an R12-cell tail.
#define MASK(dst) MOVQ R12, AX; NEGQ AX; LEAQ tailMask<>+32(SB), BX; VMOVUPS (BX)(AX*4), dst

// QUIESCE is fd.Quiesce on 8 lanes: x becomes +0 where its bits shifted left
// by one are below the floor's in Y12 (an unsigned compare, so the sign drops
// out and ±Inf and NaN pass), through t and u.
#define QUIESCE(x, t, u) \
	VPSLLD $1, x, t; \
	VPMAXUD Y12, t, u; \
	VPCMPEQD u, t, t; \
	VPAND x, t, x

// VSPLIT sets n to Quiesce(dec*sp + gain*t), one velocity split, and stores
// it into the split window sp, through Y5 and Y6.
#define VSPLIT(LD, OP, ST, dec, gain, sp, t, n) \
	LD(gain, R14, Y5); \
	VMULPS t, Y5, Y5; \
	LD(dec, R14, n); \
	OP(VMULPS, sp, DI, n, n); \
	VADDPS Y5, n, n; \
	QUIESCE(n, Y5, Y6); \
	ST(n, DI)

// func pmlVelocityTile(n, nj, nk, grow, gplane, srow, splane, crow, cplane int, dth, c1, c2 float32, u, v, w, ... *float32)
TEXT ·pmlVelocityTile(SB), NOSPLIT, $0-520

// VCOMP is one velocity component: dth*b in Y8, its three directional force
// terms from the differences along each axis (in Y0, Y1, Y2), its three
// split updates summed in Y3 from the x split, and Quiesce of the sum stored
// into out. It is defined inside the TEXT block, as the cell program is, so
// that vet's asmdecl checks its frame offsets.
#define VCOMP(LD, OP, ST, b, out, sx, sy, sz, xa, xb, xc, xd, ya, yb, yc, yd, za, zb, zc, zd) \
	OP(VMULPS, b, SI, Y13, Y8); \
	DERIV(LD, OP, xa, xb, xc, xd, Y8, Y0, Y5); \
	DERIV(LD, OP, ya, yb, yc, yd, Y8, Y1, Y5); \
	DERIV(LD, OP, za, zb, zc, zd, Y8, Y2, Y5); \
	VSPLIT(LD, OP, ST, decx+472(FP), gainx+480(FP), sx, Y0, Y3); \
	VSPLIT(LD, OP, ST, decy+488(FP), gainy+496(FP), sy, Y1, Y4); \
	VADDPS Y4, Y3, Y3; \
	VSPLIT(LD, OP, ST, decz+504(FP), gainz+512(FP), sz, Y2, Y4); \
	VADDPS Y4, Y3, Y3; \
	QUIESCE(Y3, Y5, Y6); \
	MOVQ out, AX; \
	ST(Y3, SI)

// PMLVELOCITY is velocitySweep's cell program on the 8 lanes at the cursors.
#define PMLVELOCITY(LD, OP, ST) \
	VCOMP(LD, OP, ST, bx+112(FP), u+88(FP), xu+400(FP), yu+424(FP), zu+448(FP), xxp1x+152(FP), xxc+136(FP), xxp2x+160(FP), xxm1x+144(FP), xyc+168(FP), xym1y+208(FP), xyp1y+216(FP), xym2y+200(FP), xzc+224(FP), xzm1z+264(FP), xzp1z+272(FP), xzm2z+256(FP)); \
	VCOMP(LD, OP, ST, by+120(FP), v+96(FP), xv+408(FP), yv+432(FP), zv+456(FP), xyc+168(FP), xym1x+184(FP), xyp1x+192(FP), xym2x+176(FP), yyp1y+296(FP), yyc+280(FP), yyp2y+304(FP), yym1y+288(FP), yzc+312(FP), yzm1z+352(FP), yzp1z+360(FP), yzm2z+344(FP)); \
	VCOMP(LD, OP, ST, bz+128(FP), w+104(FP), xw+416(FP), yw+440(FP), zw+464(FP), xzc+224(FP), xzm1x+240(FP), xzp1x+248(FP), xzm2x+232(FP), yzc+312(FP), yzm1y+328(FP), yzp1y+336(FP), yzm2y+320(FP), zzp1z+384(FP), zzc+368(FP), zzp2z+392(FP), zzm1z+376(FP))

	MOVQ n+0(FP), DX
	MOVQ nj+8(FP), R8
	MOVQ nk+16(FP), R9
	MOVQ grow+24(FP), R10
	MOVQ srow+40(FP), R11
	MOVQ crow+56(FP), R13
	ZONETILE
	MASK(Y10)
	VBROADCASTSS dth+72(FP), Y13
	VBROADCASTSS c1+76(FP), Y15
	VBROADCASTSS c2+80(FP), Y14
	MOVL $0x1b000000, AX // quiescenceFloor2
	VMOVD AX, X12
	VPBROADCASTD X12, Y12

vplane:
	MOVQ nj+8(FP), R8

vrow:
	MOVQ DX, CX
	TESTQ CX, CX
	JEQ vtail
	PCALIGN $32

vfull:
	PMLVELOCITY(LDF, OPF, STF)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R14
	DECQ CX
	JNZ vfull

vtail:
	TESTQ R12, R12
	JEQ vnext
	PMLVELOCITY(LDM, OPM, STM)

vnext:
	ADDQ R10, SI
	ADDQ R11, DI
	ADDQ R13, R14
	DECQ R8
	JNZ vrow
	ADDQ gplane+32(FP), SI
	ADDQ splane+48(FP), DI
	ADDQ cplane+64(FP), R14
	DECQ R9
	JNZ vplane
	VZEROUPPER

done:
	RET

// SSPLIT sets n to dec*sp + gain*(mu*e), one stress split, and stores it
// into the split window sp, through Y5.
#define SSPLIT(LD, OP, ST, dec, gain, sp, mu, e, n) \
	VMULPS e, mu, Y5; \
	LD(gain, R14, n); \
	VMULPS Y5, n, Y5; \
	LD(dec, R14, n); \
	OP(VMULPS, sp, DI, n, n); \
	VADDPS Y5, n, n; \
	ST(n, DI)

// func pmlStressTile(n, nj, nk, grow, gplane, srow, splane, crow, cplane int, dth, c1, c2 float32, uc, um2x, ... *float32)
TEXT ·pmlStressTile(SB), NOSPLIT, $0-584

// NORMALS is one normal stress: with exx, eyy, ezz in Y0, Y1, Y2, lam in Y6
// and lam+2mu in Y7, its three split updates, with modulus mx, my and mz,
// summed from +0 in Y3 and stored into out. Inside the TEXT block as VCOMP
// is.
#define NORMALS(LD, OP, ST, out, sx, sy, sz, mx, my, mz) \
	SSPLIT(LD, OP, ST, decx+536(FP), gainx+544(FP), sx, mx, Y0, Y4); \
	VADDPS Y4, Y11, Y3; \
	SSPLIT(LD, OP, ST, decy+552(FP), gainy+560(FP), sy, my, Y1, Y4); \
	VADDPS Y4, Y3, Y3; \
	SSPLIT(LD, OP, ST, decz+568(FP), gainz+576(FP), sz, mz, Y2, Y4); \
	VADDPS Y4, Y3, Y3; \
	MOVQ out, AX; \
	ST(Y3, SI)

// SHEAR is one shear stress: its two derivatives from the differences
// (a, b, c, d) and (e, f, g, h) in Y0 and Y1, mu loaded into Y6, the split
// updates of splits s and t (decs, gains; dect, gaint) summed from +0 in Y3
// and stored into out.
#define SHEAR(LD, OP, ST, out, mu, a, b, c, d, e, f, g, h, decs, gains, ss, dect, gaint, st) \
	DERIV(LD, OP, a, b, c, d, Y13, Y0, Y8); \
	DERIV(LD, OP, e, f, g, h, Y13, Y1, Y8); \
	LD(mu, SI, Y6); \
	SSPLIT(LD, OP, ST, decs, gains, ss, Y6, Y0, Y4); \
	VADDPS Y4, Y11, Y3; \
	SSPLIT(LD, OP, ST, dect, gaint, st, Y6, Y1, Y4); \
	VADDPS Y4, Y3, Y3; \
	MOVQ out, AX; \
	ST(Y3, SI)

// PMLSTRESS is stressSweep's cell program on the 8 lanes at the cursors:
// one output field at a time, its split updates, then its sum.
#define PMLSTRESS(LD, OP, ST) \
	DERIV(LD, OP, uc+88(FP), um1x+104(FP), up1x+112(FP), um2x+96(FP), Y13, Y0, Y8); \
	DERIV(LD, OP, vc+168(FP), vm1y+208(FP), vp1y+216(FP), vm2y+200(FP), Y13, Y1, Y8); \
	DERIV(LD, OP, wc+248(FP), wm1z+312(FP), wp1z+320(FP), wm2z+304(FP), Y13, Y2, Y8); \
	LD(lam+376(FP), SI, Y6); \
	LD(l2m+384(FP), SI, Y7); \
	NORMALS(LD, OP, ST, xx+328(FP), xxx+416(FP), yxx+456(FP), zxx+496(FP), Y7, Y6, Y6); \
	NORMALS(LD, OP, ST, yy+336(FP), xyy+424(FP), yyy+464(FP), zyy+504(FP), Y6, Y7, Y6); \
	NORMALS(LD, OP, ST, zz+344(FP), xzz+432(FP), yzz+472(FP), zzz+512(FP), Y6, Y6, Y7); \
	SHEAR(LD, OP, ST, xy+352(FP), mxy+392(FP), vp1x+184(FP), vc+168(FP), vp2x+192(FP), vm1x+176(FP), up1y+128(FP), uc+88(FP), up2y+136(FP), um1y+120(FP), decx+536(FP), gainx+544(FP), xxy+440(FP), decy+552(FP), gainy+560(FP), yxy+480(FP)); \
	SHEAR(LD, OP, ST, xz+360(FP), mxz+400(FP), wp1x+264(FP), wc+248(FP), wp2x+272(FP), wm1x+256(FP), up1z+152(FP), uc+88(FP), up2z+160(FP), um1z+144(FP), decx+536(FP), gainx+544(FP), xxz+448(FP), decz+568(FP), gainz+576(FP), zxz+520(FP)); \
	SHEAR(LD, OP, ST, yz+368(FP), myz+408(FP), wp1y+288(FP), wc+248(FP), wp2y+296(FP), wm1y+280(FP), vp1z+232(FP), vc+168(FP), vp2z+240(FP), vm1z+224(FP), decy+552(FP), gainy+560(FP), yyz+488(FP), decz+568(FP), gainz+576(FP), zyz+528(FP))

	MOVQ n+0(FP), DX
	MOVQ nj+8(FP), R8
	MOVQ nk+16(FP), R9
	MOVQ grow+24(FP), R10
	MOVQ srow+40(FP), R11
	MOVQ crow+56(FP), R13
	ZONETILE
	MASK(Y10)
	VBROADCASTSS dth+72(FP), Y13
	VBROADCASTSS c1+76(FP), Y15
	VBROADCASTSS c2+80(FP), Y14
	VXORPS Y11, Y11, Y11

splane:
	MOVQ nj+8(FP), R8

srow:
	MOVQ DX, CX
	TESTQ CX, CX
	JEQ stail
	PCALIGN $32

sfull:
	PMLSTRESS(LDF, OPF, STF)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R14
	DECQ CX
	JNZ sfull

stail:
	TESTQ R12, R12
	JEQ snext
	PMLSTRESS(LDM, OPM, STM)

snext:
	ADDQ R10, SI
	ADDQ R11, DI
	ADDQ R13, R14
	DECQ R8
	JNZ srow
	ADDQ gplane+32(FP), SI
	ADDQ splane+48(FP), DI
	ADDQ cplane+64(FP), R14
	DECQ R9
	JNZ splane
	VZEROUPPER

done:
	RET

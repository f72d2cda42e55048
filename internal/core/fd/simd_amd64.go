package fd

// The 8-lane tile walkers (simd_amd64.s): one call sweeps every row of a
// tile of the production sweeps, eight float32 lanes to a YMM register and
// the row's last n mod 8 cells under a lane mask, in the Go body's
// association order and without FMA, so they store the Go body's bits
// (DESIGN.md §9). The body is chosen here, once, from CPUID: a host without
// AVX2 sweeps every cell in Go.

// Vector reports whether the host runs the 8-lane walkers: the CPU has AVX2
// and the OS saves the YMM registers across context switches.
var Vector = hasAVX2()

func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bit 1 is the SSE state, bit 2 the upper halves of the YMM registers.
	if xgetbv0()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32

// velocityTile runs velocityRows' cell body over a tile of nk planes of nj
// rows of n cells, each window p being the tile's first row: it reads and
// writes [p+4(r·dy+q·dz), +4n) of each window p for r < nj and q < nk, and
// nothing else.
//
//go:noescape
func velocityTile(n, nj, nk, dy, dz int, dth, c1, c2 float32,
	u, v, w, bx, by, bz,
	xxc, xxm1x, xxp1x, xxp2x,
	xyc, xym2x, xym1x, xyp1x, xym2y, xym1y, xyp1y,
	xzc, xzm2x, xzm1x, xzp1x, xzm2z, xzm1z, xzp1z,
	yyc, yym1y, yyp1y, yyp2y,
	yzc, yzm2y, yzm1y, yzp1y, yzm2z, yzm1z, yzp1z,
	zzc, zzm1z, zzp1z, zzp2z *float32)

// stressTile runs stressRows' cell body over a tile, under velocityTile's
// contract. With fx non-nil it multiplies each stress by fx[i]·(fy[r]·fz[q])
// before storing it, reading n values at fx, nj at fy and nk at fz.
//
//go:noescape
func stressTile(n, nj, nk, dy, dz int, dth, c1, c2 float32,
	uc, um2x, um1x, up1x, um1y, up1y, up2y, um1z, up1z, up2z,
	vc, vm1x, vp1x, vp2x, vm2y, vm1y, vp1y, vm1z, vp1z, vp2z,
	wc, wm1x, wp1x, wp2x, wm1y, wp1y, wp2y, wm2z, wm1z, wp1z,
	xx, yy, zz, xy, xz, yz,
	lam, l2m, mxy, mxz, myz,
	fx, fy, fz *float32)

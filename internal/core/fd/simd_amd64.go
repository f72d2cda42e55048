package fd

// The 8-lane row bodies (simd_amd64.s): the leading ⌊ni/8⌋·8 cells of each
// row of the production sweeps, eight float32 lanes to a YMM register, in the
// Go body's association order and without FMA, so they store the Go body's
// bits (DESIGN.md §9). The kernel is chosen here, once, from CPUID: a host
// without AVX2 sweeps every cell in Go.

// avx2 reports whether the CPU has AVX2 and the OS saves the YMM registers
// across context switches.
var avx2 = hasAVX2()

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

// VectorCells returns how many leading cells of an ni-cell row the host's
// 8-lane body sweeps: ni rounded down to a multiple of 8 with AVX2, else 0.
func VectorCells(ni int) int {
	if avx2 && ni > 0 {
		return ni &^ 7
	}
	return 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32

// velocityRow8 runs velocityRows' cell body over the first n cells (a
// positive multiple of 8) of each window; it reads and writes [p, p+4n) of
// each window p and nothing else.
//
//go:noescape
func velocityRow8(n int, dth, c1, c2 float32,
	u, v, w, bx, by, bz,
	xxc, xxm1x, xxp1x, xxp2x,
	xyc, xym2x, xym1x, xyp1x, xym2y, xym1y, xyp1y,
	xzc, xzm2x, xzm1x, xzp1x, xzm2z, xzm1z, xzp1z,
	yyc, yym1y, yyp1y, yyp2y,
	yzc, yzm2y, yzm1y, yzp1y, yzm2z, yzm1z, yzp1z,
	zzc, zzm1z, zzp1z, zzp2z *float32)

// stressRow8 runs stressRows' cell body over the first n cells (a positive
// multiple of 8) of each window, under the same contract as velocityRow8.
//
//go:noescape
func stressRow8(n int, dth, c1, c2 float32,
	uc, um2x, um1x, up1x, um1y, up1y, up2y, um1z, up1z, up2z,
	vc, vm1x, vp1x, vp2x, vm2y, vm1y, vp1y, vm1z, vp1z, vp2z,
	wc, wm1x, wp1x, wp2x, wm1y, wp1y, wp2y, wm2z, wm1z, wp1z,
	xx, yy, zz, xy, xz, yz,
	lam, l2m, mxy, mxz, myz *float32)

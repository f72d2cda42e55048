package attenuation

// fusedStressTile runs FusedStress's cell body over a tile of nk planes of
// nj rows of n cells, eight lanes at a time and the row's last n mod 8 cells
// under a lane mask, in the Go body's association order and without FMA
// (simd_amd64.s, DESIGN.md §9). Each window p is the tile's first row. coef
// is the tile's recursion coefficients, [2][4][8]float32: am then cm, a lane
// vector for each row parity (j−J0)&1 | ((k−K0)&1)<<1, alternating with the
// x parity from the row's first cell. It reads coef, reads and writes
// [p+4(r·dy+q·dz), +4n) of each window p for r < nj and q < nk, and nothing
// else. With fx non-nil it multiplies each stress, not the memory variables,
// by fx[i]·(fy[r]·fz[q]) before storing it, reading n values at fx, nj at fy
// and nk at fz.
//
//go:noescape
func fusedStressTile(n, nj, nk, dy, dz int, dth, c1, c2 float32, coef *float32,
	uc, um2x, um1x, up1x, um1y, up1y, up2y, um1z, up1z, up2z,
	vc, vm1x, vp1x, vp2x, vm2y, vm1y, vp1y, vm1z, vp1z, vp2z,
	wc, wm1x, wp1x, wp2x, wm1y, wp1y, wp2y, wm2z, wm1z, wp1z,
	xx, yy, zz, xy, xz, yz,
	lam, l2m, mxy, mxz, myz,
	zxx, zyy, zzz, zxy, zxz, zyz,
	dlam, dmu,
	fx, fy, fz *float32)

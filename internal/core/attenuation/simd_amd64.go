package attenuation

// fusedStressRow8 runs FusedStress's cell body over the first n cells (a
// positive multiple of 8) of each window, eight lanes at a time, in the Go
// body's association order and without FMA (simd_amd64.s, DESIGN.md §9). am
// and cm are the row's recursion coefficients as 8 lanes, alternating with
// the x parity from the row's first cell. It reads 8 lanes at am and cm,
// reads and writes [p, p+4n) of each window p, and nothing else.
//
//go:noescape
func fusedStressRow8(n int, dth, c1, c2 float32, am, cm *float32,
	uc, um2x, um1x, up1x, um1y, up1y, up2y, um1z, up1z, up2z,
	vc, vm1x, vp1x, vp2x, vm2y, vm1y, vp1y, vm1z, vp1z, vp2z,
	wc, wm1x, wp1x, wp2x, wm1y, wp1y, wp2y, wm2z, wm1z, wp1z,
	xx, yy, zz, xy, xz, yz,
	lam, l2m, mxy, mxz, myz,
	zxx, zyy, zzz, zxy, zxz, zyz,
	dlam, dmu *float32)

package boundary

// dampRows8 is dampRows' 8-lane walker (simd_amd64.s): for each of rows rows,
// stride values apart from x, it multiplies the row's n values by fx[i]·fyz,
// fyz = fy[r]·fz, eight lanes at a time and the last n mod 8 one at a time,
// without FMA. It reads n values at fx and rows at fy, reads and writes
// [x+4·r·stride, x+4·(r·stride+n)) of each row and nothing else.
//
//go:noescape
func dampRows8(n, rows, stride int, x, fx, fy *float32, fz float32)

// pmlVelocityTile runs velocitySweep's cell body over a zone tile of nk
// planes of nj rows of n cells, eight lanes at a time and each row's last
// n mod 8 cells under a lane mask, in the Go body's association order and
// without FMA (simd_amd64.s). Each window p is the tile's first row on one of
// three grids — the global fields and the medium (u … zzp2z), the zone's
// splits (xu … zw) and the coefficient rows (decx … gainz) — whose strides
// are given in bytes: a row step r and a plane step less nj row steps q,
// (grow, gplane), (srow, splane) and (crow, cplane). Row y < nj of plane
// z < nk of window p is the n values from p + y·r + z·(nj·r + q); the walker
// reads them, writes them in the windows it stores, and touches nothing else.
//
//go:noescape
func pmlVelocityTile(n, nj, nk, grow, gplane, srow, splane, crow, cplane int, dth, c1, c2 float32,
	u, v, w, bx, by, bz,
	xxc, xxm1x, xxp1x, xxp2x,
	xyc, xym2x, xym1x, xyp1x, xym2y, xym1y, xyp1y,
	xzc, xzm2x, xzm1x, xzp1x, xzm2z, xzm1z, xzp1z,
	yyc, yym1y, yyp1y, yyp2y,
	yzc, yzm2y, yzm1y, yzp1y, yzm2z, yzm1z, yzp1z,
	zzc, zzm1z, zzp1z, zzp2z,
	xu, xv, xw, yu, yv, yw, zu, zv, zw,
	decx, gainx, decy, gainy, decz, gainz *float32)

// pmlStressTile runs stressSweep's cell body over a zone tile, under
// pmlVelocityTile's contract.
//
//go:noescape
func pmlStressTile(n, nj, nk, grow, gplane, srow, splane, crow, cplane int, dth, c1, c2 float32,
	uc, um2x, um1x, up1x, um1y, up1y, up2y, um1z, up1z, up2z,
	vc, vm1x, vp1x, vp2x, vm2y, vm1y, vp1y, vm1z, vp1z, vp2z,
	wc, wm1x, wp1x, wp2x, wm1y, wp1y, wp2y, wm2z, wm1z, wp1z,
	xx, yy, zz, xy, xz, yz,
	lam, l2m, mxy, mxz, myz,
	xxx, xyy, xzz, xxy, xxz,
	yxx, yyy, yzz, yxy, yyz,
	zxx, zyy, zzz, zxz, zyz,
	decx, gainx, decy, gainy, decz, gainz *float32)

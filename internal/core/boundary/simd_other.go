//go:build !amd64

package boundary

func dampRows8(n, rows, stride int, x, fx, fy *float32, fz float32) {
	panic("boundary: no vector walker on this platform")
}

func pmlVelocityTile(n, nj, nk, grow, gplane, srow, splane, crow, cplane int, dth, c1, c2 float32,
	u, v, w, bx, by, bz,
	xxc, xxm1x, xxp1x, xxp2x,
	xyc, xym2x, xym1x, xyp1x, xym2y, xym1y, xyp1y,
	xzc, xzm2x, xzm1x, xzp1x, xzm2z, xzm1z, xzp1z,
	yyc, yym1y, yyp1y, yyp2y,
	yzc, yzm2y, yzm1y, yzp1y, yzm2z, yzm1z, yzp1z,
	zzc, zzm1z, zzp1z, zzp2z,
	xu, xv, xw, yu, yv, yw, zu, zv, zw,
	decx, gainx, decy, gainy, decz, gainz *float32) {
	panic("boundary: no vector walker on this platform")
}

func pmlStressTile(n, nj, nk, grow, gplane, srow, splane, crow, cplane int, dth, c1, c2 float32,
	uc, um2x, um1x, up1x, um1y, up1y, up2y, um1z, up1z, up2z,
	vc, vm1x, vp1x, vp2x, vm2y, vm1y, vp1y, vm1z, vp1z, vp2z,
	wc, wm1x, wp1x, wp2x, wm1y, wp1y, wp2y, wm2z, wm1z, wp1z,
	xx, yy, zz, xy, xz, yz,
	lam, l2m, mxy, mxz, myz,
	xxx, xyy, xzz, xxy, xxz,
	yxx, yyy, yzz, yxy, yyz,
	zxx, zyy, zzz, zxz, zyz,
	decx, gainx, decy, gainy, decz, gainz *float32) {
	panic("boundary: no vector walker on this platform")
}

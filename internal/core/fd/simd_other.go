//go:build !amd64

package fd

// Vector is false: there is no vector body off amd64, so the Go loop sweeps
// every cell.
var Vector = false

func velocityTile(n, nj, nk, dy, dz int, dth, c1, c2 float32,
	u, v, w, bx, by, bz,
	xxc, xxm1x, xxp1x, xxp2x,
	xyc, xym2x, xym1x, xyp1x, xym2y, xym1y, xyp1y,
	xzc, xzm2x, xzm1x, xzp1x, xzm2z, xzm1z, xzp1z,
	yyc, yym1y, yyp1y, yyp2y,
	yzc, yzm2y, yzm1y, yzp1y, yzm2z, yzm1z, yzp1z,
	zzc, zzm1z, zzp1z, zzp2z *float32) {
	panic("fd: no vector body on this platform")
}

func stressTile(n, nj, nk, dy, dz int, dth, c1, c2 float32,
	uc, um2x, um1x, up1x, um1y, up1y, up2y, um1z, up1z, up2z,
	vc, vm1x, vp1x, vp2x, vm2y, vm1y, vp1y, vm1z, vp1z, vp2z,
	wc, wm1x, wp1x, wp2x, wm1y, wp1y, wp2y, wm2z, wm1z, wp1z,
	xx, yy, zz, xy, xz, yz,
	lam, l2m, mxy, mxz, myz,
	fx, fy, fz *float32) {
	panic("fd: no vector body on this platform")
}

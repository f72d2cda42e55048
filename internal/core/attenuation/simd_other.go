//go:build !amd64

package attenuation

func fusedStressTile(n, nj, nk, dy, dz int, dth, c1, c2 float32, coef *float32,
	uc, um2x, um1x, up1x, um1y, up1y, up2y, um1z, up1z, up2z,
	vc, vm1x, vp1x, vp2x, vm2y, vm1y, vp1y, vm1z, vp1z, vp2z,
	wc, wm1x, wp1x, wp2x, wm1y, wp1y, wp2y, wm2z, wm1z, wp1z,
	xx, yy, zz, xy, xz, yz,
	lam, l2m, mxy, mxz, myz,
	zxx, zyy, zzz, zxy, zxz, zyz,
	dlam, dmu,
	fx, fy, fz *float32) {
	panic("attenuation: no vector body on this platform")
}

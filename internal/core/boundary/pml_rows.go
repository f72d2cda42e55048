package boundary

import (
	"repro/internal/core/fd"
	"repro/internal/medium"
)

// The PML box kernels are row sweeps in the style of fd/fused.go: per (j,k)
// row, one length-ni window a[n0+off:][:ni] per field and stencil offset on
// the nine global fields and the medium, one per split field and one per
// coefficient slice, so the inner loops carry no bounds check (guarded by
// scripts/check_bce.sh). The three splits are unrolled in the order x, y, z
// and each recombined sum is accumulated ((0+x)+y)+z; a split that receives
// no term of a component still adds gain*0, so -0 + 0 rounds to +0 exactly
// where the pointwise reference of boundary_test.go does. A cell reads one
// field family and writes the other (and its own splits) on itself only, so
// any partition of a zone into boxes, run in any order or concurrently,
// stores the same bits as one whole-zone sweep.

// UpdateVelocityBox advances the velocity splits over the part b of the
// zone and writes the recombined velocities back to the global state.
// Prepare(dt) must have run.
func (pm *PML) UpdateVelocityBox(s *fd.State, m *medium.Medium, dt float64, b fd.Box) {
	if b.Empty() {
		return
	}
	pm.checkBox(dt, b)
	c1, c2 := float32(fd.C1), float32(fd.C2)
	dth := float32(dt / m.H)
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
	bx, by, bz := m.BX.Data(), m.BY.Data(), m.BZ.Data()
	sx, sy, sz := pm.split[0], pm.split[1], pm.split[2]
	xu, xv, xw := sx.VX.Data(), sx.VY.Data(), sx.VZ.Data()
	yu, yv, yw := sy.VX.Data(), sy.VY.Data(), sy.VZ.Data()
	zu, zv, zw := sz.VX.Data(), sz.VY.Data(), sz.VZ.Data()
	_, dy, dz := s.VX.Strides()
	z := pm.Zone
	i0 := b.I0 - z.I0
	ni := b.I1 - b.I0

	for k := b.K0; k < b.K1; k++ {
		for j := b.J0; j < b.J1; j++ {
			n0 := s.VX.Idx(b.I0, j, k)
			l0 := sx.VX.Idx(i0, j-z.J0, k-z.K0)
			cf := pm.rowCoef(j, k)
			decx, gainx := cf.dec[0][i0:][:ni], cf.gain[0][i0:][:ni]
			decy, gainy := cf.dec[1][i0:][:ni], cf.gain[1][i0:][:ni]
			decz, gainz := cf.dec[2][i0:][:ni], cf.gain[2][i0:][:ni]
			ur := u[n0:][:ni]
			vr := v[n0:][:ni]
			wr := w[n0:][:ni]
			bxr := bx[n0:][:ni]
			byr := by[n0:][:ni]
			bzr := bz[n0:][:ni]
			xur, xvr, xwr := xu[l0:][:ni], xv[l0:][:ni], xw[l0:][:ni]
			yur, yvr, ywr := yu[l0:][:ni], yv[l0:][:ni], yw[l0:][:ni]
			zur, zvr, zwr := zu[l0:][:ni], zv[l0:][:ni], zw[l0:][:ni]
			xxc := xx[n0:][:ni]
			xxm1x := xx[n0-1:][:ni]
			xxp1x := xx[n0+1:][:ni]
			xxp2x := xx[n0+2:][:ni]
			xyc := xy[n0:][:ni]
			xym2x := xy[n0-2:][:ni]
			xym1x := xy[n0-1:][:ni]
			xyp1x := xy[n0+1:][:ni]
			xym2y := xy[n0-2*dy:][:ni]
			xym1y := xy[n0-dy:][:ni]
			xyp1y := xy[n0+dy:][:ni]
			xzc := xz[n0:][:ni]
			xzm2x := xz[n0-2:][:ni]
			xzm1x := xz[n0-1:][:ni]
			xzp1x := xz[n0+1:][:ni]
			xzm2z := xz[n0-2*dz:][:ni]
			xzm1z := xz[n0-dz:][:ni]
			xzp1z := xz[n0+dz:][:ni]
			yyc := yy[n0:][:ni]
			yym1y := yy[n0-dy:][:ni]
			yyp1y := yy[n0+dy:][:ni]
			yyp2y := yy[n0+2*dy:][:ni]
			yzc := yz[n0:][:ni]
			yzm2y := yz[n0-2*dy:][:ni]
			yzm1y := yz[n0-dy:][:ni]
			yzp1y := yz[n0+dy:][:ni]
			yzm2z := yz[n0-2*dz:][:ni]
			yzm1z := yz[n0-dz:][:ni]
			yzp1z := yz[n0+dz:][:ni]
			zzc := zz[n0:][:ni]
			zzm1z := zz[n0-dz:][:ni]
			zzp1z := zz[n0+dz:][:ni]
			zzp2z := zz[n0+2*dz:][:ni]
			for i := range ur {
				// Directional force terms (already scaled by dt/h and 1/rho).
				uTx := dth * bxr[i] * (c1*(xxp1x[i]-xxc[i]) + c2*(xxp2x[i]-xxm1x[i]))
				uTy := dth * bxr[i] * (c1*(xyc[i]-xym1y[i]) + c2*(xyp1y[i]-xym2y[i]))
				uTz := dth * bxr[i] * (c1*(xzc[i]-xzm1z[i]) + c2*(xzp1z[i]-xzm2z[i]))
				vTx := dth * byr[i] * (c1*(xyc[i]-xym1x[i]) + c2*(xyp1x[i]-xym2x[i]))
				vTy := dth * byr[i] * (c1*(yyp1y[i]-yyc[i]) + c2*(yyp2y[i]-yym1y[i]))
				vTz := dth * byr[i] * (c1*(yzc[i]-yzm1z[i]) + c2*(yzp1z[i]-yzm2z[i]))
				wTx := dth * bzr[i] * (c1*(xzc[i]-xzm1x[i]) + c2*(xzp1x[i]-xzm2x[i]))
				wTy := dth * bzr[i] * (c1*(yzc[i]-yzm1y[i]) + c2*(yzp1y[i]-yzm2y[i]))
				wTz := dth * bzr[i] * (c1*(zzp1z[i]-zzc[i]) + c2*(zzp2z[i]-zzm1z[i]))

				var su, sv, sw float32
				nu := fd.Quiesce(decx[i]*xur[i] + gainx[i]*uTx)
				nv := fd.Quiesce(decx[i]*xvr[i] + gainx[i]*vTx)
				nw := fd.Quiesce(decx[i]*xwr[i] + gainx[i]*wTx)
				xur[i], xvr[i], xwr[i] = nu, nv, nw
				su += nu
				sv += nv
				sw += nw
				nu = fd.Quiesce(decy[i]*yur[i] + gainy[i]*uTy)
				nv = fd.Quiesce(decy[i]*yvr[i] + gainy[i]*vTy)
				nw = fd.Quiesce(decy[i]*ywr[i] + gainy[i]*wTy)
				yur[i], yvr[i], ywr[i] = nu, nv, nw
				su += nu
				sv += nv
				sw += nw
				nu = fd.Quiesce(decz[i]*zur[i] + gainz[i]*uTz)
				nv = fd.Quiesce(decz[i]*zvr[i] + gainz[i]*vTz)
				nw = fd.Quiesce(decz[i]*zwr[i] + gainz[i]*wTz)
				zur[i], zvr[i], zwr[i] = nu, nv, nw
				su += nu
				sv += nv
				sw += nw
				ur[i], vr[i], wr[i] = fd.Quiesce(su), fd.Quiesce(sv), fd.Quiesce(sw)
			}
		}
	}
}

// UpdateStressBox advances the stress splits over the part b of the zone
// and writes the recombined stresses back to the global state. Prepare(dt)
// must have run.
func (pm *PML) UpdateStressBox(s *fd.State, m *medium.Medium, dt float64, b fd.Box) {
	if b.Empty() {
		return
	}
	pm.checkBox(dt, b)
	c1, c2 := float32(fd.C1), float32(fd.C2)
	dth := float32(dt / m.H)
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
	lam, l2m := m.Lam.Data(), m.Lam2Mu.Data()
	mxy, mxz, myz := m.MuXY.Data(), m.MuXZ.Data(), m.MuYZ.Data()
	sx, sy, sz := pm.split[0], pm.split[1], pm.split[2]
	xxx, xyy, xzz := sx.XX.Data(), sx.YY.Data(), sx.ZZ.Data()
	xxy, xxz, xyz := sx.XY.Data(), sx.XZ.Data(), sx.YZ.Data()
	yxx, yyy, yzz := sy.XX.Data(), sy.YY.Data(), sy.ZZ.Data()
	yxy, yxz, yyz := sy.XY.Data(), sy.XZ.Data(), sy.YZ.Data()
	zxx, zyy, zzz := sz.XX.Data(), sz.YY.Data(), sz.ZZ.Data()
	zxy, zxz, zyz := sz.XY.Data(), sz.XZ.Data(), sz.YZ.Data()
	_, dy, dz := s.VX.Strides()
	z := pm.Zone
	i0 := b.I0 - z.I0
	ni := b.I1 - b.I0

	for k := b.K0; k < b.K1; k++ {
		for j := b.J0; j < b.J1; j++ {
			n0 := s.VX.Idx(b.I0, j, k)
			l0 := sx.VX.Idx(i0, j-z.J0, k-z.K0)
			cf := pm.rowCoef(j, k)
			decx, gainx := cf.dec[0][i0:][:ni], cf.gain[0][i0:][:ni]
			decy, gainy := cf.dec[1][i0:][:ni], cf.gain[1][i0:][:ni]
			decz, gainz := cf.dec[2][i0:][:ni], cf.gain[2][i0:][:ni]
			uc := u[n0:][:ni]
			um2x := u[n0-2:][:ni]
			um1x := u[n0-1:][:ni]
			up1x := u[n0+1:][:ni]
			um1y := u[n0-dy:][:ni]
			up1y := u[n0+dy:][:ni]
			up2y := u[n0+2*dy:][:ni]
			um1z := u[n0-dz:][:ni]
			up1z := u[n0+dz:][:ni]
			up2z := u[n0+2*dz:][:ni]
			vc := v[n0:][:ni]
			vm1x := v[n0-1:][:ni]
			vp1x := v[n0+1:][:ni]
			vp2x := v[n0+2:][:ni]
			vm2y := v[n0-2*dy:][:ni]
			vm1y := v[n0-dy:][:ni]
			vp1y := v[n0+dy:][:ni]
			vm1z := v[n0-dz:][:ni]
			vp1z := v[n0+dz:][:ni]
			vp2z := v[n0+2*dz:][:ni]
			wc := w[n0:][:ni]
			wm1x := w[n0-1:][:ni]
			wp1x := w[n0+1:][:ni]
			wp2x := w[n0+2:][:ni]
			wm1y := w[n0-dy:][:ni]
			wp1y := w[n0+dy:][:ni]
			wp2y := w[n0+2*dy:][:ni]
			wm2z := w[n0-2*dz:][:ni]
			wm1z := w[n0-dz:][:ni]
			wp1z := w[n0+dz:][:ni]
			xxr, yyr, zzr := xx[n0:][:ni], yy[n0:][:ni], zz[n0:][:ni]
			xyr, xzr, yzr := xy[n0:][:ni], xz[n0:][:ni], yz[n0:][:ni]
			lamr := lam[n0:][:ni]
			l2mr := l2m[n0:][:ni]
			mxyr := mxy[n0:][:ni]
			mxzr := mxz[n0:][:ni]
			myzr := myz[n0:][:ni]
			xxxr, xyyr, xzzr := xxx[l0:][:ni], xyy[l0:][:ni], xzz[l0:][:ni]
			xxyr, xxzr, xyzr := xxy[l0:][:ni], xxz[l0:][:ni], xyz[l0:][:ni]
			yxxr, yyyr, yzzr := yxx[l0:][:ni], yyy[l0:][:ni], yzz[l0:][:ni]
			yxyr, yxzr, yyzr := yxy[l0:][:ni], yxz[l0:][:ni], yyz[l0:][:ni]
			zxxr, zyyr, zzzr := zxx[l0:][:ni], zyy[l0:][:ni], zzz[l0:][:ni]
			zxyr, zxzr, zyzr := zxy[l0:][:ni], zxz[l0:][:ni], zyz[l0:][:ni]
			for i := range xxr {
				exx := dth * (c1*(uc[i]-um1x[i]) + c2*(up1x[i]-um2x[i]))
				eyy := dth * (c1*(vc[i]-vm1y[i]) + c2*(vp1y[i]-vm2y[i]))
				ezz := dth * (c1*(wc[i]-wm1z[i]) + c2*(wp1z[i]-wm2z[i]))
				duy := dth * (c1*(up1y[i]-uc[i]) + c2*(up2y[i]-um1y[i]))
				dvx := dth * (c1*(vp1x[i]-vc[i]) + c2*(vp2x[i]-vm1x[i]))
				duz := dth * (c1*(up1z[i]-uc[i]) + c2*(up2z[i]-um1z[i]))
				dwx := dth * (c1*(wp1x[i]-wc[i]) + c2*(wp2x[i]-wm1x[i]))
				dvz := dth * (c1*(vp1z[i]-vc[i]) + c2*(vp2z[i]-vm1z[i]))
				dwy := dth * (c1*(wp1y[i]-wc[i]) + c2*(wp2y[i]-wm1y[i]))

				// x split: the terms holding x-derivatives (none in syz).
				var sxx, syy, szz, sxy, sxz, syz float32
				nxx := decx[i]*xxxr[i] + gainx[i]*(l2mr[i]*exx)
				nyy := decx[i]*xyyr[i] + gainx[i]*(lamr[i]*exx)
				nzz := decx[i]*xzzr[i] + gainx[i]*(lamr[i]*exx)
				nxy := decx[i]*xxyr[i] + gainx[i]*(mxyr[i]*dvx)
				nxz := decx[i]*xxzr[i] + gainx[i]*(mxzr[i]*dwx)
				nyz := decx[i]*xyzr[i] + gainx[i]*0
				xxxr[i], xyyr[i], xzzr[i] = nxx, nyy, nzz
				xxyr[i], xxzr[i], xyzr[i] = nxy, nxz, nyz
				sxx += nxx
				syy += nyy
				szz += nzz
				sxy += nxy
				sxz += nxz
				syz += nyz
				// y split (none in sxz).
				nxx = decy[i]*yxxr[i] + gainy[i]*(lamr[i]*eyy)
				nyy = decy[i]*yyyr[i] + gainy[i]*(l2mr[i]*eyy)
				nzz = decy[i]*yzzr[i] + gainy[i]*(lamr[i]*eyy)
				nxy = decy[i]*yxyr[i] + gainy[i]*(mxyr[i]*duy)
				nxz = decy[i]*yxzr[i] + gainy[i]*0
				nyz = decy[i]*yyzr[i] + gainy[i]*(myzr[i]*dwy)
				yxxr[i], yyyr[i], yzzr[i] = nxx, nyy, nzz
				yxyr[i], yxzr[i], yyzr[i] = nxy, nxz, nyz
				sxx += nxx
				syy += nyy
				szz += nzz
				sxy += nxy
				sxz += nxz
				syz += nyz
				// z split (none in sxy).
				nxx = decz[i]*zxxr[i] + gainz[i]*(lamr[i]*ezz)
				nyy = decz[i]*zyyr[i] + gainz[i]*(lamr[i]*ezz)
				nzz = decz[i]*zzzr[i] + gainz[i]*(l2mr[i]*ezz)
				nxy = decz[i]*zxyr[i] + gainz[i]*0
				nxz = decz[i]*zxzr[i] + gainz[i]*(mxzr[i]*duz)
				nyz = decz[i]*zyzr[i] + gainz[i]*(myzr[i]*dvz)
				zxxr[i], zyyr[i], zzzr[i] = nxx, nyy, nzz
				zxyr[i], zxzr[i], zyzr[i] = nxy, nxz, nyz
				sxx += nxx
				syy += nyy
				szz += nzz
				sxy += nxy
				sxz += nxz
				syz += nyz
				xxr[i], yyr[i], zzr[i] = sxx, syy, szz
				xyr[i], xzr[i], yzr[i] = sxy, sxz, syz
			}
		}
	}
}

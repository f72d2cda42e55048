package boundary

import (
	"repro/internal/core/fd"
	"repro/internal/medium"
)

// The PML box kernels sweep a zone tile row by row, as fd's production
// sweeps do (fd/rows.go): per (j,k) row, one length-ni window a[n0+off:][:ni]
// per field and stencil offset, so the inner loops carry no bounds check
// (guarded by scripts/check_bce.sh). A row reads three kinds of array, each
// with its own row and plane strides:
//
//   - the nine global fields and the medium, at n0 on the padded grid: the
//     stencil of one field family, the medium and the other family's cell,
//     which is written;
//   - the zone's 24 splits, at l0 on the zone's own cells (local index =
//     global − zone origin): read and written at the cell only, so they are
//     dense, with no ghost frame — a row is nx values apart and a plane
//     nx·ny, and on an x zone a tile's rows are one contiguous stream;
//   - the coefficient row of the row's plane along the zone's normal (see
//     Prepare), at coefAt(j,k): read at the cell's x-offset only.
//
// The three splits are unrolled in the order x, y, z and each recombined sum
// is accumulated ((0+x)+y)+z from a var s float32, so a sum starts by adding
// +0: a stress split can be −0, and +0 + (−0) is +0. The x split of syz, y of
// sxz and z of sxy take no term and would hold +0 forever, so a zone stores
// 24 splits; a partial sum +0 + x is never −0, so skipping a +0 term changes
// no bit of the recombined stresses. A cell reads one field family and
// writes the other (and its own splits) on itself only, so any partition of
// a zone into boxes, run in any order or concurrently, stores the same bits
// as one whole-zone sweep.
//
// Where fd.Vector, one call of an 8-lane walker (simd_amd64.s) sweeps the
// whole tile from the windows of its first row, stepping a cursor for each
// kind of array by its own strides; the Go side checks each array's span
// once before the call. The Go row loop is the body off amd64 and without
// AVX2, and the walkers' oracle.

// UpdateVelocityBox advances the velocity splits over the part b of the
// zone and writes the recombined velocities back to the global state.
// Prepare(dt) must have run.
func (pm *PML) UpdateVelocityBox(s *fd.State, m *medium.Medium, dt float64, b fd.Box) {
	pm.velocitySweep(s, m, dt, b, fd.Vector)
}

// velocitySweep is UpdateVelocityBox with the body chosen by vec: true walks
// the tile in one pmlVelocityTile call, false runs the Go row loop.
func (pm *PML) velocitySweep(s *fd.State, m *medium.Medium, dt float64, b fd.Box, vec bool) {
	ni := b.I1 - b.I0
	if ni <= 0 || b.Empty() { // ni > 0, said outright, proves the walker's &w[0] in bounds
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
	_, ldy, ldz := sx.VX.Strides()
	z := pm.Zone
	nx := z.I1 - z.I0
	i0 := b.I0 - z.I0

	for k := b.K0; k < b.K1; k++ {
		for j := b.J0; j < b.J1; j++ {
			n0 := s.VX.Idx(b.I0, j, k)
			l0 := sx.VX.Idx(i0, j-z.J0, k-z.K0)
			c0 := pm.coefAt(j, k) + i0
			decx, gainx := pm.coef[c0:][:ni], pm.coef[c0+nx:][:ni]
			decy, gainy := pm.coef[c0+2*nx:][:ni], pm.coef[c0+3*nx:][:ni]
			decz, gainz := pm.coef[c0+4*nx:][:ni], pm.coef[c0+5*nx:][:ni]
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
			if vec {
				// The first row's windows bound every window from below; the
				// highest window of each array bounds the tile's last row
				// from above.
				nj, nk := b.J1-b.J0, b.K1-b.K0
				span := b.Span(dy, dz)
				_, _, _, _, _, _ = u[n0:][:span], v[n0:][:span], w[n0:][:span], bx[n0:][:span], by[n0:][:span], bz[n0:][:span]
				_, _, _, _, _, _ = xx[n0+2:][:span], xy[n0+dy:][:span], xz[n0+dz:][:span], yy[n0+2*dy:][:span], yz[n0+dz:][:span], zz[n0+2*dz:][:span]
				lspan := b.Span(ldy, ldz)
				_, _, _, _, _, _, _, _, _ = xu[l0:][:lspan], xv[l0:][:lspan], xw[l0:][:lspan], yu[l0:][:lspan], yv[l0:][:lspan], yw[l0:][:lspan], zu[l0:][:lspan], zv[l0:][:lspan], zw[l0:][:lspan]
				_ = pm.coef[c0+5*nx:][:b.Span(pm.coefRow, pm.coefPlane)]
				pmlVelocityTile(ni, nj, nk, 4*dy, 4*(dz-nj*dy), 4*ldy, 4*(ldz-nj*ldy), 4*pm.coefRow, 4*(pm.coefPlane-nj*pm.coefRow), dth, c1, c2,
					&ur[0], &vr[0], &wr[0], &bxr[0], &byr[0], &bzr[0],
					&xxc[0], &xxm1x[0], &xxp1x[0], &xxp2x[0],
					&xyc[0], &xym2x[0], &xym1x[0], &xyp1x[0], &xym2y[0], &xym1y[0], &xyp1y[0],
					&xzc[0], &xzm2x[0], &xzm1x[0], &xzp1x[0], &xzm2z[0], &xzm1z[0], &xzp1z[0],
					&yyc[0], &yym1y[0], &yyp1y[0], &yyp2y[0],
					&yzc[0], &yzm2y[0], &yzm1y[0], &yzp1y[0], &yzm2z[0], &yzm1z[0], &yzp1z[0],
					&zzc[0], &zzm1z[0], &zzp1z[0], &zzp2z[0],
					&xur[0], &xvr[0], &xwr[0], &yur[0], &yvr[0], &ywr[0], &zur[0], &zvr[0], &zwr[0],
					&decx[0], &gainx[0], &decy[0], &gainy[0], &decz[0], &gainz[0])
				return
			}
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
	pm.stressSweep(s, m, dt, b, fd.Vector)
}

// stressSweep is UpdateStressBox with the body chosen by vec, as in
// velocitySweep.
func (pm *PML) stressSweep(s *fd.State, m *medium.Medium, dt float64, b fd.Box, vec bool) {
	ni := b.I1 - b.I0
	if ni <= 0 || b.Empty() { // ni > 0, said outright, proves the walker's &w[0] in bounds
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
	xxy, xxz := sx.XY.Data(), sx.XZ.Data()
	yxx, yyy, yzz := sy.XX.Data(), sy.YY.Data(), sy.ZZ.Data()
	yxy, yyz := sy.XY.Data(), sy.YZ.Data()
	zxx, zyy, zzz := sz.XX.Data(), sz.YY.Data(), sz.ZZ.Data()
	zxz, zyz := sz.XZ.Data(), sz.YZ.Data()
	_, dy, dz := s.VX.Strides()
	_, ldy, ldz := sx.VX.Strides()
	z := pm.Zone
	nx := z.I1 - z.I0
	i0 := b.I0 - z.I0

	for k := b.K0; k < b.K1; k++ {
		for j := b.J0; j < b.J1; j++ {
			n0 := s.VX.Idx(b.I0, j, k)
			l0 := sx.VX.Idx(i0, j-z.J0, k-z.K0)
			c0 := pm.coefAt(j, k) + i0
			decx, gainx := pm.coef[c0:][:ni], pm.coef[c0+nx:][:ni]
			decy, gainy := pm.coef[c0+2*nx:][:ni], pm.coef[c0+3*nx:][:ni]
			decz, gainz := pm.coef[c0+4*nx:][:ni], pm.coef[c0+5*nx:][:ni]
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
			xxyr, xxzr := xxy[l0:][:ni], xxz[l0:][:ni]
			yxxr, yyyr, yzzr := yxx[l0:][:ni], yyy[l0:][:ni], yzz[l0:][:ni]
			yxyr, yyzr := yxy[l0:][:ni], yyz[l0:][:ni]
			zxxr, zyyr, zzzr := zxx[l0:][:ni], zyy[l0:][:ni], zzz[l0:][:ni]
			zxzr, zyzr := zxz[l0:][:ni], zyz[l0:][:ni]
			if vec {
				// Span checks as in velocitySweep.
				nj, nk := b.J1-b.J0, b.K1-b.K0
				span := b.Span(dy, dz)
				_, _, _ = u[n0+2*dz:][:span], v[n0+2*dz:][:span], w[n0+dz:][:span]
				_, _, _, _, _, _ = xx[n0:][:span], yy[n0:][:span], zz[n0:][:span], xy[n0:][:span], xz[n0:][:span], yz[n0:][:span]
				_, _, _, _, _ = lam[n0:][:span], l2m[n0:][:span], mxy[n0:][:span], mxz[n0:][:span], myz[n0:][:span]
				lspan := b.Span(ldy, ldz)
				_, _, _, _, _ = xxx[l0:][:lspan], xyy[l0:][:lspan], xzz[l0:][:lspan], xxy[l0:][:lspan], xxz[l0:][:lspan]
				_, _, _, _, _ = yxx[l0:][:lspan], yyy[l0:][:lspan], yzz[l0:][:lspan], yxy[l0:][:lspan], yyz[l0:][:lspan]
				_, _, _, _, _ = zxx[l0:][:lspan], zyy[l0:][:lspan], zzz[l0:][:lspan], zxz[l0:][:lspan], zyz[l0:][:lspan]
				_ = pm.coef[c0+5*nx:][:b.Span(pm.coefRow, pm.coefPlane)]
				pmlStressTile(ni, nj, nk, 4*dy, 4*(dz-nj*dy), 4*ldy, 4*(ldz-nj*ldy), 4*pm.coefRow, 4*(pm.coefPlane-nj*pm.coefRow), dth, c1, c2,
					&uc[0], &um2x[0], &um1x[0], &up1x[0], &um1y[0], &up1y[0], &up2y[0], &um1z[0], &up1z[0], &up2z[0],
					&vc[0], &vm1x[0], &vp1x[0], &vp2x[0], &vm2y[0], &vm1y[0], &vp1y[0], &vm1z[0], &vp1z[0], &vp2z[0],
					&wc[0], &wm1x[0], &wp1x[0], &wp2x[0], &wm1y[0], &wp1y[0], &wp2y[0], &wm2z[0], &wm1z[0], &wp1z[0],
					&xxr[0], &yyr[0], &zzr[0], &xyr[0], &xzr[0], &yzr[0],
					&lamr[0], &l2mr[0], &mxyr[0], &mxzr[0], &myzr[0],
					&xxxr[0], &xyyr[0], &xzzr[0], &xxyr[0], &xxzr[0],
					&yxxr[0], &yyyr[0], &yzzr[0], &yxyr[0], &yyzr[0],
					&zxxr[0], &zyyr[0], &zzzr[0], &zxzr[0], &zyzr[0],
					&decx[0], &gainx[0], &decy[0], &gainy[0], &decz[0], &gainz[0])
				return
			}
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
				xxxr[i], xyyr[i], xzzr[i] = nxx, nyy, nzz
				xxyr[i], xxzr[i] = nxy, nxz
				sxx += nxx
				syy += nyy
				szz += nzz
				sxy += nxy
				sxz += nxz
				// y split (none in sxz).
				nxx = decy[i]*yxxr[i] + gainy[i]*(lamr[i]*eyy)
				nyy = decy[i]*yyyr[i] + gainy[i]*(l2mr[i]*eyy)
				nzz = decy[i]*yzzr[i] + gainy[i]*(lamr[i]*eyy)
				nxy = decy[i]*yxyr[i] + gainy[i]*(mxyr[i]*duy)
				nyz := decy[i]*yyzr[i] + gainy[i]*(myzr[i]*dwy)
				yxxr[i], yyyr[i], yzzr[i] = nxx, nyy, nzz
				yxyr[i], yyzr[i] = nxy, nyz
				sxx += nxx
				syy += nyy
				szz += nzz
				sxy += nxy
				syz += nyz
				// z split (none in sxy).
				nxx = decz[i]*zxxr[i] + gainz[i]*(lamr[i]*ezz)
				nyy = decz[i]*zyyr[i] + gainz[i]*(lamr[i]*ezz)
				nzz = decz[i]*zzzr[i] + gainz[i]*(l2mr[i]*ezz)
				nxz = decz[i]*zxzr[i] + gainz[i]*(mxzr[i]*duz)
				nyz = decz[i]*zyzr[i] + gainz[i]*(myzr[i]*dvz)
				zxxr[i], zyyr[i], zzzr[i] = nxx, nyy, nzz
				zxzr[i], zyzr[i] = nxz, nyz
				sxx += nxx
				syy += nyy
				szz += nzz
				sxz += nxz
				syz += nyz
				xxr[i], yyr[i], zzr[i] = sxx, syy, szz
				xyr[i], xzr[i], yzr[i] = sxy, sxz, syz
			}
		}
	}
}

package fd

import "repro/internal/medium"

// The production kernel pair: Precomp's arithmetic restructured for
// bounds-check elimination. The whole-array form indexes u[n±2*dz] etc., which the compiler cannot prove
// in-bounds, so every stencil load carries a bounds check. Here each (j,k)
// row instead slices one explicit length-ni window per field and stencil
// offset:
//
//	ap := a[n0+off:][:ni]    // a[n+off] == ap[i],  i = n-n0
//
// The two-step slice matters: the second slice's length is the literal SSA
// value ni, so with `for i := range center` the prove pass sees i < ni ==
// len(every window) and eliminates all inner-loop bounds checks (a single
// combined form a[lo:hi] leaves len as an opaque difference the prover
// cannot reduce). Verified by scripts/check_bce.sh with
// -gcflags=-d=ssa/check_bce; the remaining IsSliceInBounds checks fire once
// per row, not per point. The arithmetic is operand-for-operand that of
// velocityPrecomp/stressPrecomp, so results are bit-identical. The ghost
// frame (grid.Ghost = 2) guarantees every window of an interior box stays
// inside the backing array.

// velocityRows is the production velocity kernel: velocityPrecomp with
// per-row subslice windows, the whole tile in one call of the 8-lane walker
// where the host has one.
func velocityRows(s *State, m *medium.Medium, dt float64, b Box) {
	velocitySweep(s, m, dt, b, Vector)
}

// velocitySweep is velocityRows with the body chosen by vec: true walks the
// tile in one velocityTile call, from the windows of its first row; false
// runs the Go loop, what a host without AVX2 runs and the walker's oracle.
func velocitySweep(s *State, m *medium.Medium, dt float64, b Box, vec bool) {
	ni := b.I1 - b.I0
	if ni <= 0 {
		return
	}
	dth := float32(dt / m.H)
	c1, c2 := float32(C1), float32(C2)
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
	bx, by, bz := m.BX.Data(), m.BY.Data(), m.BZ.Data()
	_, dy, dz := s.VX.Strides()

	for k := b.K0; k < b.K1; k++ {
		for j := b.J0; j < b.J1; j++ {
			n0 := s.VX.Idx(b.I0, j, k)
			ur := u[n0:][:ni]
			vr := v[n0:][:ni]
			wr := w[n0:][:ni]
			bxr := bx[n0:][:ni]
			byr := by[n0:][:ni]
			bzr := bz[n0:][:ni]
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
				// The first row's windows bound every window from below;
				// the highest window of each field bounds the tile's last
				// row from above.
				span := b.Span(dy, dz)
				_, _, _, _, _, _ = u[n0:][:span], v[n0:][:span], w[n0:][:span], bx[n0:][:span], by[n0:][:span], bz[n0:][:span]
				_, _, _, _, _, _ = xx[n0+2:][:span], xy[n0+dy:][:span], xz[n0+dz:][:span], yy[n0+2*dy:][:span], yz[n0+dz:][:span], zz[n0+2*dz:][:span]
				velocityTile(ni, b.J1-b.J0, b.K1-b.K0, dy, dz, dth, c1, c2,
					&ur[0], &vr[0], &wr[0], &bxr[0], &byr[0], &bzr[0],
					&xxc[0], &xxm1x[0], &xxp1x[0], &xxp2x[0],
					&xyc[0], &xym2x[0], &xym1x[0], &xyp1x[0], &xym2y[0], &xym1y[0], &xyp1y[0],
					&xzc[0], &xzm2x[0], &xzm1x[0], &xzp1x[0], &xzm2z[0], &xzm1z[0], &xzp1z[0],
					&yyc[0], &yym1y[0], &yyp1y[0], &yyp2y[0],
					&yzc[0], &yzm2y[0], &yzm1y[0], &yzp1y[0], &yzm2z[0], &yzm1z[0], &yzp1z[0],
					&zzc[0], &zzm1z[0], &zzp1z[0], &zzp2z[0])
				return
			}
			for i := range ur {
				ur[i] = Quiesce(ur[i] + dth*bxr[i]*(c1*(xxp1x[i]-xxc[i])+c2*(xxp2x[i]-xxm1x[i])+
					c1*(xyc[i]-xym1y[i])+c2*(xyp1y[i]-xym2y[i])+
					c1*(xzc[i]-xzm1z[i])+c2*(xzp1z[i]-xzm2z[i])))
				vr[i] = Quiesce(vr[i] + dth*byr[i]*(c1*(xyc[i]-xym1x[i])+c2*(xyp1x[i]-xym2x[i])+
					c1*(yyp1y[i]-yyc[i])+c2*(yyp2y[i]-yym1y[i])+
					c1*(yzc[i]-yzm1z[i])+c2*(yzp1z[i]-yzm2z[i])))
				wr[i] = Quiesce(wr[i] + dth*bzr[i]*(c1*(xzc[i]-xzm1x[i])+c2*(xzp1x[i]-xzm2x[i])+
					c1*(yzc[i]-yzm1y[i])+c2*(yzp1y[i]-yzm2y[i])+
					c1*(zzp1z[i]-zzc[i])+c2*(zzp2z[i]-zzm1z[i])))
			}
		}
	}
}

// stressRows is the production elastic stress kernel: stressPrecomp with
// per-row subslice windows. When attenuation is enabled the solver calls
// attenuation.FusedStress instead, which folds the memory-variable update
// into the same i-loop.
func stressRows(s *State, m *medium.Medium, dt float64, b Box) {
	stressSweep(s, m, dt, b, Taper{}, Vector)
}

// UpdateStressTapered is the production stress kernel over tile b in one
// sweep, each of the six stresses multiplied by tp's factor before it is
// stored: the bits of UpdateStress(Blocked) over b followed by damping the
// six stresses over b by tp, a row at a time as the sponge does.
func UpdateStressTapered(s *State, m *medium.Medium, dt float64, b Box, tp Taper) {
	if b.Empty() {
		return
	}
	stressSweep(s, m, dt, b, tp, Vector)
}

// DampRow is the Go bodies' taper on row r of plane q of a tile whose taper
// windows are fx, fy and fz (Taper.Windows): right after the row's update it
// multiplies value i of each of the six stress rows by fx[i]·(fy[r]·fz[q]),
// which stores what multiplying each value before its store does. The row
// factor is formed once, as the sponge forms it; the explicit check spares
// the row its two implicit ones.
func DampRow(fx, fy, fz []float32, r, q int, xx, yy, zz, xy, xz, yz []float32) {
	if uint(r) >= uint(len(fy)) || uint(q) >= uint(len(fz)) {
		panic("fd: row outside the taper's windows")
	}
	fyz := fy[r] * fz[q]
	n := len(fx)
	xx, yy, zz, xy, xz, yz = xx[:n], yy[:n], zz[:n], xy[:n], xz[:n], yz[:n]
	for i, x := range fx {
		a := x * fyz
		xx[i] *= a
		yy[i] *= a
		zz[i] *= a
		xy[i] *= a
		xz[i] *= a
		yz[i] *= a
	}
}

// stressSweep is stressRows with the body chosen by vec, as in
// velocitySweep, and each stress multiplied by tp before it is stored.
func stressSweep(s *State, m *medium.Medium, dt float64, b Box, tp Taper, vec bool) {
	ni := b.I1 - b.I0
	if ni <= 0 {
		return
	}
	fx, fy, fz := tp.Windows(b)
	dth := float32(dt / m.H)
	c1, c2 := float32(C1), float32(C2)
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
	lam, l2m := m.Lam.Data(), m.Lam2Mu.Data()
	mxy, mxz, myz := m.MuXY.Data(), m.MuXZ.Data(), m.MuYZ.Data()
	_, dy, dz := s.VX.Strides()

	for k := b.K0; k < b.K1; k++ {
		for j := b.J0; j < b.J1; j++ {
			n0 := s.VX.Idx(b.I0, j, k)
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
			xxr := xx[n0:][:ni]
			yyr := yy[n0:][:ni]
			zzr := zz[n0:][:ni]
			xyr := xy[n0:][:ni]
			xzr := xz[n0:][:ni]
			yzr := yz[n0:][:ni]
			lamr := lam[n0:][:ni]
			l2mr := l2m[n0:][:ni]
			mxyr := mxy[n0:][:ni]
			mxzr := mxz[n0:][:ni]
			myzr := myz[n0:][:ni]
			if vec {
				// Span checks as in velocitySweep.
				span := b.Span(dy, dz)
				_, _, _ = u[n0+2*dz:][:span], v[n0+2*dz:][:span], w[n0+dz:][:span]
				_, _, _, _, _, _ = xx[n0:][:span], yy[n0:][:span], zz[n0:][:span], xy[n0:][:span], xz[n0:][:span], yz[n0:][:span]
				_, _, _, _, _ = lam[n0:][:span], l2m[n0:][:span], mxy[n0:][:span], mxz[n0:][:span], myz[n0:][:span]
				px, py, pz := tp.Args(b)
				stressTile(ni, b.J1-b.J0, b.K1-b.K0, dy, dz, dth, c1, c2,
					&uc[0], &um2x[0], &um1x[0], &up1x[0], &um1y[0], &up1y[0], &up2y[0], &um1z[0], &up1z[0], &up2z[0],
					&vc[0], &vm1x[0], &vp1x[0], &vp2x[0], &vm2y[0], &vm1y[0], &vp1y[0], &vm1z[0], &vp1z[0], &vp2z[0],
					&wc[0], &wm1x[0], &wp1x[0], &wp2x[0], &wm1y[0], &wp1y[0], &wp2y[0], &wm2z[0], &wm1z[0], &wp1z[0],
					&xxr[0], &yyr[0], &zzr[0], &xyr[0], &xzr[0], &yzr[0],
					&lamr[0], &l2mr[0], &mxyr[0], &mxzr[0], &myzr[0], px, py, pz)
				return
			}
			for i := range uc {
				exx := c1*(uc[i]-um1x[i]) + c2*(up1x[i]-um2x[i])
				eyy := c1*(vc[i]-vm1y[i]) + c2*(vp1y[i]-vm2y[i])
				ezz := c1*(wc[i]-wm1z[i]) + c2*(wp1z[i]-wm2z[i])
				xxr[i] += dth * (l2mr[i]*exx + lamr[i]*(eyy+ezz))
				yyr[i] += dth * (l2mr[i]*eyy + lamr[i]*(exx+ezz))
				zzr[i] += dth * (l2mr[i]*ezz + lamr[i]*(exx+eyy))
				xyr[i] += dth * mxyr[i] * (c1*(up1y[i]-uc[i]) + c2*(up2y[i]-um1y[i]) +
					c1*(vp1x[i]-vc[i]) + c2*(vp2x[i]-vm1x[i]))
				xzr[i] += dth * mxzr[i] * (c1*(up1z[i]-uc[i]) + c2*(up2z[i]-um1z[i]) +
					c1*(wp1x[i]-wc[i]) + c2*(wp2x[i]-wm1x[i]))
				yzr[i] += dth * myzr[i] * (c1*(vp1z[i]-vc[i]) + c2*(vp2z[i]-vm1z[i]) +
					c1*(wp1y[i]-wc[i]) + c2*(wp2y[i]-wm1y[i]))
			}
			if fx != nil {
				DampRow(fx, fy, fz, j-b.J0, k-b.K0, xxr, yyr, zzr, xyr, xzr, yzr)
			}
		}
	}
}

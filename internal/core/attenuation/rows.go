package attenuation

// The two sweeps of the memory-variable scheme, and the set-up sweep of its
// deficits. The step sweeps walk a box row by row through per-row, per-offset
// subslice windows (ap := a[n0+off:][:ni], as the fd production kernels do)
// so the inner loops carry no bounds checks — this file is guarded by
// scripts/check_bce.sh — and both collapse the per-mechanism recursion
// coefficients to a two-entry table per row, because only the x parity of
// the coarse-graining cell varies along a row.

import (
	"fmt"

	"repro/internal/core/fd"
	"repro/internal/medium"
)

// deficits fills DLam and DMu, norm being the coarse-grain normalization,
// in one sweep over the padded arrays (the medium's share their layout);
// refDeficits in attenuation_test.go is the pointwise oracle.
func (a *Model) deficits(m *medium.Medium, norm float64) {
	dlam := a.DLam.Data()
	n := len(dlam)
	dmu, qpr, qsr, lamr, mur := a.DMu.Data()[:n], m.QP.Data()[:n], m.QS.Data()[:n], m.Lam.Data()[:n], m.Mu.Data()[:n]
	for i := range dlam {
		qp, qs, mu, lam2mu := float64(qpr[i]), float64(qsr[i]), float64(mur[i]), float64(lamr[i])+2*float64(mur[i])
		var dl, dm float64
		if qs > 0 {
			dm = norm * mu / qs
		}
		if qp > 0 {
			// Qp controls the P modulus (lam+2mu); subtract the mu part so
			// lambda's deficit is consistent.
			dl = norm*lam2mu/qp - 2*dm
			if dl < 0 {
				dl = 0
			}
		}
		dlam[i], dmu[i] = float32(dl), float32(dm)
	}
}

// FusedStress advances the six stress components and the coarse-grained
// memory variables over box in a single sweep: the Day (1998) update runs
// point-by-point inside the same i-loop as the elastic constitutive update,
// so each stress value is read, corrected, and written once per step
// instead of twice (one read/modify/write of XX..YZ instead of the
// UpdateStress + Apply pair re-streaming all six fields).
//
// Results are bit-identical to fd.UpdateStress(Precomp/Fused) followed by
// Apply over the same box:
//
//   - The elastic update at point n reads only velocities and material
//     arrays and writes stress at n; the memory-variable update reads only
//     velocities, DLam/DMu, and the stress/memory variable at n. No point
//     reads another point's stress, so interleaving per point cannot change
//     any operand.
//   - The two passes scale derivatives by the same constant (dth == dh ==
//     float32(dt/m.H)) from identical difference expressions, so reusing the
//     elastic derivative sums here (aexx = dth*exx, ...) reproduces the
//     two-pass strain increments bit-for-bit. On amd64 the Go compiler
//     emits an FMA only for an explicit math.FMA, so identical expressions
//     round identically, and the 8-lane body (simd_amd64.s) evaluates the
//     same expressions lane-wise without FMA. On arm64 the compiler fuses a
//     float32 multiply feeding an add or subtract into one FMADDS/FMSUBS
//     (ARM64.rules), so there the identity holds only where both bodies
//     fuse alike; no test runs on arm64 (DESIGN.md §9).
func (a *Model) FusedStress(s *fd.State, m *medium.Medium, dt float64, box fd.Box) {
	a.fusedStress(s, m, dt, box, fd.Taper{}, fd.Vector)
}

// FusedStressTapered is FusedStress with each of the six stresses — not the
// memory variables — multiplied by tp's factor before it is stored: the bits
// of FusedStress over box followed by damping the six stresses over box by
// tp, a row at a time as the sponge does.
func (a *Model) FusedStressTapered(s *fd.State, m *medium.Medium, dt float64, box fd.Box, tp fd.Taper) {
	if box.Empty() {
		return
	}
	a.fusedStress(s, m, dt, box, tp, fd.Vector)
}

// fusedStress is FusedStress with the body chosen by vec: true walks the
// tile in one fusedStressTile call, from the windows of its first row; false
// runs the Go loop, what a host without AVX2 runs and the walker's oracle.
// Each stress is multiplied by tp before it is stored.
func (a *Model) fusedStress(s *fd.State, m *medium.Medium, dt float64, box fd.Box, tp fd.Taper, vec bool) {
	if dt != a.dt {
		panic(fmt.Sprintf("attenuation: model built for dt=%g, called with %g", a.dt, dt))
	}
	ni := box.I1 - box.I0
	if ni <= 0 {
		return
	}
	fx, fy, fz := tp.Windows(box)
	dth := float32(dt / m.H)
	c1, c2 := float32(fd.C1), float32(fd.C2)
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
	lam, l2m := m.Lam.Data(), m.Lam2Mu.Data()
	mxy, mxz, myz := m.MuXY.Data(), m.MuXZ.Data(), m.MuYZ.Data()
	zxx, zyy, zzz := a.ZXX.Data(), a.ZYY.Data(), a.ZZZ.Data()
	zxy, zxz, zyz := a.ZXY.Data(), a.ZXZ.Data(), a.ZYZ.Data()
	dlam, dmu := a.DLam.Data(), a.DMu.Data()
	_, dy, dz := s.VX.Strides()

	// The walker's coefficient table for the box's first cell serves the Go
	// loop too: only the x parity varies along a row, so row t of it holds
	// the row's two mechanisms, alternating with i from lane 0.
	tab := &a.walk[((box.I0+a.Origin[0])&1|((box.J0+a.Origin[1])&1)<<1|((box.K0+a.Origin[2])&1)<<2)&7]

	for k := box.K0; k < box.K1; k++ {
		for j := box.J0; j < box.J1; j++ {
			n0 := s.VX.Idx(box.I0, j, k)
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
			zxxr := zxx[n0:][:ni]
			zyyr := zyy[n0:][:ni]
			zzzr := zzz[n0:][:ni]
			zxyr := zxy[n0:][:ni]
			zxzr := zxz[n0:][:ni]
			zyzr := zyz[n0:][:ni]
			dlamr := dlam[n0:][:ni]
			dmur := dmu[n0:][:ni]
			if vec {
				// The first row's windows bound every window from below;
				// the highest window of each field bounds the tile's last
				// row from above.
				span := box.Span(dy, dz)
				_, _, _ = u[n0+2*dz:][:span], v[n0+2*dz:][:span], w[n0+dz:][:span]
				_, _, _, _, _, _ = xx[n0:][:span], yy[n0:][:span], zz[n0:][:span], xy[n0:][:span], xz[n0:][:span], yz[n0:][:span]
				_, _, _, _, _ = lam[n0:][:span], l2m[n0:][:span], mxy[n0:][:span], mxz[n0:][:span], myz[n0:][:span]
				_, _, _, _, _, _ = zxx[n0:][:span], zyy[n0:][:span], zzz[n0:][:span], zxy[n0:][:span], zxz[n0:][:span], zyz[n0:][:span]
				_, _ = dlam[n0:][:span], dmu[n0:][:span]
				px, py, pz := tp.Args(box)
				fusedStressTile(ni, box.J1-box.J0, box.K1-box.K0, dy, dz, dth, c1, c2, &tab[0][0][0],
					&uc[0], &um2x[0], &um1x[0], &up1x[0], &um1y[0], &up1y[0], &up2y[0], &um1z[0], &up1z[0], &up2z[0],
					&vc[0], &vm1x[0], &vp1x[0], &vp2x[0], &vm2y[0], &vm1y[0], &vp1y[0], &vm1z[0], &vp1z[0], &vp2z[0],
					&wc[0], &wm1x[0], &wp1x[0], &wp2x[0], &wm1y[0], &wp1y[0], &wp2y[0], &wm2z[0], &wm1z[0], &wp1z[0],
					&xxr[0], &yyr[0], &zzr[0], &xyr[0], &xzr[0], &yzr[0],
					&lamr[0], &l2mr[0], &mxyr[0], &mxzr[0], &myzr[0],
					&zxxr[0], &zyyr[0], &zzzr[0], &zxyr[0], &zxzr[0], &zyzr[0],
					&dlamr[0], &dmur[0], px, py, pz)
				return
			}
			t := ((j-box.J0)&1 | ((k-box.K0)&1)<<1) & 3
			amT, cmT := &tab[0][t], &tab[1][t]
			for i := range uc {
				// Elastic constitutive update (== stressPrecomp).
				exx := c1*(uc[i]-um1x[i]) + c2*(up1x[i]-um2x[i])
				eyy := c1*(vc[i]-vm1y[i]) + c2*(vp1y[i]-vm2y[i])
				ezz := c1*(wc[i]-wm1z[i]) + c2*(wp1z[i]-wm2z[i])
				dxy := c1*(up1y[i]-uc[i]) + c2*(up2y[i]-um1y[i]) +
					c1*(vp1x[i]-vc[i]) + c2*(vp2x[i]-vm1x[i])
				dxz := c1*(up1z[i]-uc[i]) + c2*(up2z[i]-um1z[i]) +
					c1*(wp1x[i]-wc[i]) + c2*(wp2x[i]-wm1x[i])
				dyz := c1*(vp1z[i]-vc[i]) + c2*(vp2z[i]-vm1z[i]) +
					c1*(wp1y[i]-wc[i]) + c2*(wp2y[i]-wm1y[i])
				xxr[i] += dth * (l2mr[i]*exx + lamr[i]*(eyy+ezz))
				yyr[i] += dth * (l2mr[i]*eyy + lamr[i]*(exx+ezz))
				zzr[i] += dth * (l2mr[i]*ezz + lamr[i]*(exx+eyy))
				xyr[i] += dth * mxyr[i] * dxy
				xzr[i] += dth * mxzr[i] * dxz
				yzr[i] += dth * myzr[i] * dyz

				// Memory-variable update (== Apply) on the just-written
				// stress: zeta' = am*zeta + cm*drive, sigma += zeta' - zeta.
				am, cm := amT[i&1], cmT[i&1]
				aexx := dth * exx
				aeyy := dth * eyy
				aezz := dth * ezz
				dl2m := dlamr[i] + 2*dmur[i]
				trace := dlamr[i] * (aexx + aeyy + aezz)
				zn := am*zxxr[i] + cm*(dl2m*aexx+trace-dlamr[i]*aexx)
				xxr[i] += zn - zxxr[i]
				zxxr[i] = zn
				zn = am*zyyr[i] + cm*(dl2m*aeyy+trace-dlamr[i]*aeyy)
				yyr[i] += zn - zyyr[i]
				zyyr[i] = zn
				zn = am*zzzr[i] + cm*(dl2m*aezz+trace-dlamr[i]*aezz)
				zzr[i] += zn - zzzr[i]
				zzzr[i] = zn
				zn = am*zxyr[i] + cm*(dmur[i]*(dth*dxy))
				xyr[i] += zn - zxyr[i]
				zxyr[i] = zn
				zn = am*zxzr[i] + cm*(dmur[i]*(dth*dxz))
				xzr[i] += zn - zxzr[i]
				zxzr[i] = zn
				zn = am*zyzr[i] + cm*(dmur[i]*(dth*dyz))
				yzr[i] += zn - zyzr[i]
				zyzr[i] = zn
			}
			if fx != nil {
				fd.DampRow(fx, fy, fz, j-box.J0, k-box.K0, xxr, yyr, zzr, xyr, xzr, yzr)
			}
		}
	}
}

// Apply advances the memory variables over box using the velocity field of
// s (whose spatial differences give the strain increments) and applies the
// anelastic stress corrections in place: the second of the two passes
// FusedStress does in one, for the callers that need the elastic stress on
// its own in between (the DFR split-node correction) or that keep an elastic
// kernel of their own (the Naive ablation). Call it after the elastic
// stress update each time step, with the same dt and box.
func (a *Model) Apply(s *fd.State, m *medium.Medium, dt float64, box fd.Box) {
	if dt != a.dt {
		panic(fmt.Sprintf("attenuation: model built for dt=%g, called with %g", a.dt, dt))
	}
	if box.Empty() {
		return
	}
	dh := float32(dt / m.H) // strain increment scale
	c1, c2 := float32(fd.C1), float32(fd.C2)
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
	zxx, zyy, zzz := a.ZXX.Data(), a.ZYY.Data(), a.ZZZ.Data()
	zxy, zxz, zyz := a.ZXY.Data(), a.ZXZ.Data(), a.ZYZ.Data()
	dlam, dmu := a.DLam.Data(), a.DMu.Data()
	_, dy, dz := s.VX.Strides()
	ni := box.I1 - box.I0
	amf, cmf := a.coef32()
	pari := (box.I0 + a.Origin[0]) & 1

	for k := box.K0; k < box.K1; k++ {
		gkbit := ((k + a.Origin[2]) & 1) << 2
		for j := box.J0; j < box.J1; j++ {
			base := gkbit | ((j+a.Origin[1])&1)<<1
			amP := [2]float32{amf[base], amf[base|1]}
			cmP := [2]float32{cmf[base], cmf[base|1]}

			n0 := s.VX.Idx(box.I0, j, k)
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
			zxxr := zxx[n0:][:ni]
			zyyr := zyy[n0:][:ni]
			zzzr := zzz[n0:][:ni]
			zxyr := zxy[n0:][:ni]
			zxzr := zxz[n0:][:ni]
			zyzr := zyz[n0:][:ni]
			dlamr := dlam[n0:][:ni]
			dmur := dmu[n0:][:ni]
			for i := range xxr {
				// Strain increments over this step (dt * strain rate);
				// shear components are engineering strain, matching the
				// elastic constitutive update.
				exx := dh * (c1*(uc[i]-um1x[i]) + c2*(up1x[i]-um2x[i]))
				eyy := dh * (c1*(vc[i]-vm1y[i]) + c2*(vp1y[i]-vm2y[i]))
				ezz := dh * (c1*(wc[i]-wm1z[i]) + c2*(wp1z[i]-wm2z[i]))
				exy := dh * (c1*(up1y[i]-uc[i]) + c2*(up2y[i]-um1y[i]) +
					c1*(vp1x[i]-vc[i]) + c2*(vp2x[i]-vm1x[i]))
				exz := dh * (c1*(up1z[i]-uc[i]) + c2*(up2z[i]-um1z[i]) +
					c1*(wp1x[i]-wc[i]) + c2*(wp2x[i]-wm1x[i]))
				eyz := dh * (c1*(vp1z[i]-vc[i]) + c2*(vp2z[i]-vm1z[i]) +
					c1*(wp1y[i]-wc[i]) + c2*(wp2y[i]-wm1y[i]))

				// zeta' = am*zeta + cm*deltaM*deps, constitutive-shaped;
				// the SLS stress is sigma = M_R*eps + zeta (the elastic
				// kernel supplies the relaxed part), so the correction adds
				// the memory-variable increment.
				p := (i + pari) & 1
				am, cm := amP[p], cmP[p]
				dl2m := dlamr[i] + 2*dmur[i]
				trace := dlamr[i] * (exx + eyy + ezz)
				zn := am*zxxr[i] + cm*(dl2m*exx+trace-dlamr[i]*exx)
				xxr[i] += zn - zxxr[i]
				zxxr[i] = zn
				zn = am*zyyr[i] + cm*(dl2m*eyy+trace-dlamr[i]*eyy)
				yyr[i] += zn - zyyr[i]
				zyyr[i] = zn
				zn = am*zzzr[i] + cm*(dl2m*ezz+trace-dlamr[i]*ezz)
				zzr[i] += zn - zzzr[i]
				zzzr[i] = zn
				zn = am*zxyr[i] + cm*(dmur[i]*exy)
				xyr[i] += zn - zxyr[i]
				zxyr[i] = zn
				zn = am*zxzr[i] + cm*(dmur[i]*exz)
				xzr[i] += zn - zxzr[i]
				zxzr[i] = zn
				zn = am*zyzr[i] + cm*(dmur[i]*eyz)
				yzr[i] += zn - zyzr[i]
				zyzr[i] = zn
			}
		}
	}
}

// coef32 returns the per-mechanism recursion coefficients in the kernels'
// precision.
func (a *Model) coef32() (am, cm [NRelax]float32) {
	for mm := 0; mm < NRelax; mm++ {
		am[mm] = float32(a.am[mm])
		cm[mm] = float32(a.cm[mm])
	}
	return
}

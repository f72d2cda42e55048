package attenuation

// The two sweeps of the memory-variable scheme, and the set-up sweep of its
// deficits. FusedStress's row body, fusedCells, and its 8-lane walker are
// generated from a table (scripts/lanegen). The step sweeps walk a box row
// by row through per-row, per-offset subslice windows (ap :=
// a[n0+off:][:ni], as the fd production kernels do) so the inner loops carry
// no bounds checks — this file and the generated one are guarded by
// scripts/check_bce.sh — and both collapse the per-mechanism recursion
// coefficients to a two-entry table per row, because only the x parity of
// the coarse-graining cell varies along a row.

import (
	"fmt"

	"repro/internal/core/fd"
	"repro/internal/medium"
)

//go:generate go run repro/scripts/lanegen attenuation

// deficits fills DLam and DMu, norm being the coarse-grain normalization,
// a row at a time over the subgrid's cells; refDeficits in
// attenuation_test.go is the pointwise oracle. Qp is 2·Qs, and
// float32(2·qs) is 2·float32(qs) wherever both are normal floats (a Vs
// between 2·10⁻³⁶ and 3·10³⁹ m/s), so 2·QS stands in, bit for bit, for the
// Qp array a medium no longer stores.
func (a *Model) deficits(m *medium.Medium, norm float64) {
	d := a.Dims
	for k := 0; k < d.NZ; k++ {
		for j := 0; j < d.NY; j++ {
			q0, n0 := a.DLam.Idx(0, j, k), m.Mu.Idx(0, j, k)
			dlam, dmu := a.DLam.Data()[q0:][:d.NX], a.DMu.Data()[q0:][:d.NX]
			qsr, lamr, mur := m.QS.Data()[q0:][:d.NX], m.Lam.Data()[q0:][:d.NX], m.Mu.Data()[n0:][:d.NX]
			for i := range dlam {
				qs, mu, lam2mu := float64(qsr[i]), float64(mur[i]), float64(lamr[i])+2*float64(mur[i])
				var dl, dm float64
				if qs > 0 {
					dm = norm * mu / qs
					// Qp controls the P modulus (lam+2mu); subtract the mu
					// part so lambda's deficit is consistent.
					if dl = norm*lam2mu/(2*qs) - 2*dm; dl < 0 {
						dl = 0
					}
				}
				dlam[i], dmu[i] = float32(dl), float32(dm)
			}
		}
	}
}

// FusedStress advances the six stress components and the coarse-grained
// memory variables over box in a single sweep: the Day (1998) update runs
// point-by-point inside the same i-loop as the elastic constitutive update,
// so each stress value is read, corrected, and written once per step
// instead of twice (one read/modify/write of XX..YZ instead of the
// UpdateStress + Apply pair re-streaming all six fields).
//
// Results are bit-identical to fd.UpdateStress(Precomp or Blocked) followed
// by Apply over the same box:
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
//     round identically, and the 8-lane body (walkers_gen_amd64.s) evaluates
//     the same expressions lane-wise without FMA. On arm64 the compiler fuses
//     a float32 multiply feeding an add or subtract into one FMADDS/FMSUBS
//     (ARM64.rules) unless a float32 conversion rounds the product first:
//     the generated body converts every product, Apply does not, so there
//     the identity holds only where Apply fuses nothing; no test runs on
//     arm64 (DESIGN.md §9).
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
// tile in one fusedStressTile call, false runs the Go loop, what a host
// without AVX2 runs and the walker's oracle. Each stress is multiplied by tp
// before it is stored.
func (a *Model) fusedStress(s *fd.State, m *medium.Medium, dt float64, box fd.Box, tp fd.Taper, vec bool) {
	if dt != a.dt {
		panic(fmt.Sprintf("attenuation: model built for dt=%g, called with %g", a.dt, dt))
	}
	fx, fy, fz := tp.Windows(box)
	_, dy, dz := s.VX.Strides()
	_, my, mz := a.ZXX.Strides()
	// The walker's coefficient table for the box's first cell serves the Go
	// loop too: only the x parity varies along a row, so row t of it holds
	// the row's two mechanisms, alternating with i from lane 0.
	tab := &a.walk[((box.I0+a.Origin[0])&1|((box.J0+a.Origin[1])&1)<<1|((box.K0+a.Origin[2])&1)<<2)&7]
	fusedCells(box.I1-box.I0, box.J1-box.J0, box.K1-box.K0, s.VX.Idx(box.I0, box.J0, box.K0), dy, dz,
		a.ZXX.Idx(box.I0, box.J0, box.K0), my, mz, float32(dt/m.H), fd.C1, fd.C2,
		s.VX.Data(), s.VY.Data(), s.VZ.Data(), s.XX.Data(), s.YY.Data(), s.ZZ.Data(), s.XY.Data(), s.XZ.Data(), s.YZ.Data(),
		m.Lam.Data(), m.Lam2Mu.Data(), m.MuXY.Data(), m.MuXZ.Data(), m.MuYZ.Data(),
		a.ZXX.Data(), a.ZYY.Data(), a.ZZZ.Data(), a.ZXY.Data(), a.ZXZ.Data(), a.ZYZ.Data(), a.DLam.Data(), a.DMu.Data(),
		tab, fx, fy, fz, vec)
}

// Apply advances the memory variables over box using the velocity field of
// s (whose spatial differences give the strain increments) and applies the
// anelastic stress corrections in place: the second of the two passes
// FusedStress does in one, for the callers that need the elastic stress on
// its own in between (the DFR split-node correction). Call it after the
// elastic stress update each time step, with the same dt and box.
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

			n0, q0 := s.VX.Idx(box.I0, j, k), a.ZXX.Idx(box.I0, j, k)
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
			zxxr := zxx[q0:][:ni]
			zyyr := zyy[q0:][:ni]
			zzzr := zzz[q0:][:ni]
			zxyr := zxy[q0:][:ni]
			zxzr := zxz[q0:][:ni]
			zyzr := zyz[q0:][:ni]
			dlamr := dlam[q0:][:ni]
			dmur := dmu[q0:][:ni]
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

package fd

import "repro/internal/medium"

//go:generate go run repro/scripts/lanegen fd

// The production kernel pair: Precomp's arithmetic restructured for
// bounds-check elimination. Its row bodies, velocityCells and stressCells,
// and their 8-lane walkers are generated from one table each
// (scripts/lanegen); this file maps the state and medium onto them. The
// whole-array form indexes u[n±2*dz] etc., which the compiler cannot prove
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
// cannot reduce). Verified by scripts/check_bce.sh (on sweeps_gen.go) with
// -gcflags=-d=ssa/check_bce; the remaining IsSliceInBounds checks fire once
// per row, not per point. The arithmetic is operand-for-operand that of
// velocityPrecomp/stressPrecomp, so results are bit-identical. A body
// walks two grids, each with its own row and plane strides: the wavefield's,
// whose ghost frame (grid.Ghost = 2) keeps every stencil window of an
// interior box inside the backing array, and the medium's coefficients',
// dense on the subgrid's cells and read at the cell only.

// UpdateVelocityTapered is the production velocity kernel — velocityPrecomp
// with per-row subslice windows, the whole tile in one call of the 8-lane
// walker where the host has one — over tile b in one sweep, each of the three
// velocities multiplied by tp's factor as the sweep loads it: the bits of
// damping the three velocities over b by tp, a row at a time as the sponge
// does, followed by UpdateVelocity(Blocked) over b. A velocity update reads
// the velocity at its own cell only, so the sweep stores what the sponge's
// pass at the end of the last step followed by this step's update stored.
// The zero Taper multiplies nothing: the sweep is UpdateVelocity(Blocked).
func UpdateVelocityTapered(s *State, m *medium.Medium, dt float64, b Box, tp Taper) {
	if b.Empty() {
		return
	}
	velocitySweep(s, m, dt, b, tp, Vector)
}

// velocitySweep is the production velocity kernel over b with the body
// chosen by vec, each velocity multiplied by tp as it is loaded: true walks
// the tile in one velocityTile call, from the windows of its first row; false
// runs the Go loop, what a host without AVX2 runs and the walker's oracle.
func velocitySweep(s *State, m *medium.Medium, dt float64, b Box, tp Taper, vec bool) {
	fx, fy, fz := tp.Windows(b)
	_, dy, dz := s.VX.Strides()
	_, my, mz := m.BX.Strides()
	velocityCells(b.I1-b.I0, b.J1-b.J0, b.K1-b.K0, s.VX.Idx(b.I0, b.J0, b.K0), dy, dz, m.BX.Idx(b.I0, b.J0, b.K0), my, mz,
		float32(dt/m.H), C1, C2, s.VX.Data(), s.VY.Data(), s.VZ.Data(),
		s.XX.Data(), s.XY.Data(), s.XZ.Data(), s.YY.Data(), s.YZ.Data(), s.ZZ.Data(), m.BX.Data(), m.BY.Data(), m.BZ.Data(),
		fx, fy, fz, vec)
}

// UpdateStressTapered is the production elastic stress kernel — stressPrecomp
// with per-row subslice windows — over tile b in one sweep, each of the six
// stresses multiplied by tp's factor before it is stored: the bits of
// UpdateStress(Blocked) over b followed by damping the six stresses over b by
// tp, a row at a time as the sponge does; under the zero Taper, those of
// UpdateStress(Blocked). When attenuation is enabled the solver calls
// attenuation's FusedStressTapered instead, which folds the memory-variable
// update into the same i-loop.
func UpdateStressTapered(s *State, m *medium.Medium, dt float64, b Box, tp Taper) {
	if b.Empty() {
		return
	}
	stressSweep(s, m, dt, b, tp, Vector)
}

// stressSweep is the production elastic stress kernel over b with the body
// chosen by vec, as in velocitySweep, and each stress multiplied by tp before
// it is stored.
func stressSweep(s *State, m *medium.Medium, dt float64, b Box, tp Taper, vec bool) {
	fx, fy, fz := tp.Windows(b)
	_, dy, dz := s.VX.Strides()
	_, my, mz := m.Lam.Strides()
	stressCells(b.I1-b.I0, b.J1-b.J0, b.K1-b.K0, s.VX.Idx(b.I0, b.J0, b.K0), dy, dz, m.Lam.Idx(b.I0, b.J0, b.K0), my, mz,
		float32(dt/m.H), C1, C2,
		s.VX.Data(), s.VY.Data(), s.VZ.Data(), s.XX.Data(), s.YY.Data(), s.ZZ.Data(), s.XY.Data(), s.XZ.Data(), s.YZ.Data(),
		m.Lam.Data(), m.Lam2Mu.Data(), m.MuXY.Data(), m.MuXZ.Data(), m.MuYZ.Data(), fx, fy, fz, vec)
}

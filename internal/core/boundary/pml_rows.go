package boundary

import (
	"repro/internal/core/fd"
	"repro/internal/medium"
)

//go:generate go run repro/scripts/lanegen boundary

// The PML box kernels sweep a zone tile row by row, as fd's production
// sweeps do (fd/rows.go): per (j,k) row, one length-ni window a[n0+off:][:ni]
// per field and stencil offset, so the inner loops carry no bounds check
// (guarded by scripts/check_bce.sh). A row reads four kinds of array, each
// with its own row and plane strides:
//
//   - the nine global fields, at n0 on the padded grid: the stencil of one
//     field family and the other family's cell, which is written;
//   - the medium's coefficients, at m0 on the subgrid's cells: dense, read
//     at the cell only;
//   - the zone's 24 splits, at l0 on the zone's own cells (local index =
//     global − zone origin): read and written at the cell only, so they are
//     dense, with no ghost frame — a row is nx values apart and a plane
//     nx·ny, and on an x zone a tile's rows are one contiguous stream;
//   - the coefficient row of the row's plane along the zone's normal (see
//     Prepare), at coefAt(j,k): read at the cell's x-offset only.
//
// The row bodies, pmlVelocityCells and pmlStressCells, and their 8-lane
// walkers are generated from one table each (scripts/lanegen); this file
// maps the state, the medium, the splits and the coefficient rows onto
// them. The three splits are unrolled in the order x, y, z. Each recombined
// stress is accumulated ((0+x)+y)+z from a var s float32, so a sum starts by
// adding +0: a stress split can be −0, and +0 + (−0) is +0. The x split of
// syz, y of sxz and z of sxy take no term and would hold +0 forever, so a
// zone stores 24 splits; a partial sum +0 + x is never −0, so skipping a +0
// term changes no bit of the recombined stresses. The velocity splits have
// passed fd.Quiesce, which leaves no −0, so their sums start at the x split.
// A cell reads one field family and writes the other (and its own splits)
// on itself only, so any partition of a zone into boxes, run in any order
// or concurrently, stores the same bits as one whole-zone sweep.
//
// Where fd.Vector, one call of an 8-lane walker (walkers_gen_amd64.s) sweeps
// the whole tile, stepping a cursor for each kind of array by its own
// strides; the Go side checks each window's span once before the call. The
// Go row loop is the body off amd64 and without AVX2, and the walkers'
// oracle.

// UpdateVelocityBox advances the velocity splits over the part b of the
// zone and writes the recombined velocities back to the global state.
// Prepare(dt) must have run.
func (pm *PML) UpdateVelocityBox(s *fd.State, m *medium.Medium, dt float64, b fd.Box) {
	pm.velocitySweep(s, m, dt, b, fd.Vector)
}

// velocitySweep is UpdateVelocityBox with the body chosen by vec: true walks
// the tile in one pmlVelocityTile call, false runs the Go row loop.
func (pm *PML) velocitySweep(s *fd.State, m *medium.Medium, dt float64, b fd.Box, vec bool) {
	if b.Empty() {
		return
	}
	pm.checkBox(dt, b)
	sx, sy, sz := pm.split[0], pm.split[1], pm.split[2]
	n0, dy, dz, l0, ldy, ldz, c0 := pm.origins(s, b)
	_, my, mz := m.BX.Strides()
	pmlVelocityCells(b.I1-b.I0, b.J1-b.J0, b.K1-b.K0, n0, dy, dz, m.BX.Idx(b.I0, b.J0, b.K0), my, mz,
		l0, ldy, ldz, c0, pm.coefRow, pm.coefPlane, pm.Zone.I1-pm.Zone.I0, float32(dt/m.H), fd.C1, fd.C2,
		s.VX.Data(), s.VY.Data(), s.VZ.Data(), s.XX.Data(), s.XY.Data(), s.XZ.Data(), s.YY.Data(), s.YZ.Data(), s.ZZ.Data(),
		m.BX.Data(), m.BY.Data(), m.BZ.Data(),
		sx.VX.Data(), sx.VY.Data(), sx.VZ.Data(), sy.VX.Data(), sy.VY.Data(), sy.VZ.Data(),
		sz.VX.Data(), sz.VY.Data(), sz.VZ.Data(), pm.coef, vec)
}

// origins returns tile b's first cell and the row and plane strides on
// three of the grids a zone sweep reads: the global fields, the zone's
// splits and the coefficient rows.
func (pm *PML) origins(s *fd.State, b fd.Box) (n0, dy, dz, l0, ldy, ldz, c0 int) {
	z, sx := pm.Zone, pm.split[0]
	_, dy, dz = s.VX.Strides()
	_, ldy, ldz = sx.VX.Strides()
	return s.VX.Idx(b.I0, b.J0, b.K0), dy, dz, sx.VX.Idx(b.I0-z.I0, b.J0-z.J0, b.K0-z.K0), ldy, ldz,
		pm.coefAt(b.J0, b.K0) + b.I0 - z.I0
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
	if b.Empty() {
		return
	}
	pm.checkBox(dt, b)
	sx, sy, sz := pm.split[0], pm.split[1], pm.split[2]
	n0, dy, dz, l0, ldy, ldz, c0 := pm.origins(s, b)
	_, my, mz := m.Lam.Strides()
	pmlStressCells(b.I1-b.I0, b.J1-b.J0, b.K1-b.K0, n0, dy, dz, m.Lam.Idx(b.I0, b.J0, b.K0), my, mz,
		l0, ldy, ldz, c0, pm.coefRow, pm.coefPlane, pm.Zone.I1-pm.Zone.I0, float32(dt/m.H), fd.C1, fd.C2,
		s.VX.Data(), s.VY.Data(), s.VZ.Data(), s.XX.Data(), s.YY.Data(), s.ZZ.Data(), s.XY.Data(), s.XZ.Data(), s.YZ.Data(),
		m.Lam.Data(), m.Lam2Mu.Data(), m.MuXY.Data(), m.MuXZ.Data(), m.MuYZ.Data(),
		sx.XX.Data(), sx.YY.Data(), sx.ZZ.Data(), sx.XY.Data(), sx.XZ.Data(),
		sy.XX.Data(), sy.YY.Data(), sy.ZZ.Data(), sy.XY.Data(), sy.YZ.Data(),
		sz.XX.Data(), sz.YY.Data(), sz.ZZ.Data(), sz.XZ.Data(), sz.YZ.Data(), pm.coef, vec)
}

// Package boundary implements the external boundary conditions of AWP-ODC
// (§II.D–E): the FS2 zero-stress free surface at the top of the model, and
// two absorbing boundary conditions for the sides and bottom — simple
// sponge layers (Cerjan) and split-field multi-axial perfectly matched
// layers (M-PML).
package boundary

import (
	"repro/internal/core/fd"
	"repro/internal/grid"
	"repro/internal/medium"
)

// FaceSet selects which physical domain faces a condition applies to.
type FaceSet struct {
	XLo, XHi, YLo, YHi, ZLo, ZHi bool
}

// FreeSurface implements the FS2 planar free-surface condition
// (Gottschammer & Olsen 2001): the zero-stress surface is located at the
// vertical level of the sxz and syz stresses, half a cell above the first
// normal-stress plane (k = -1/2 in local indices). Stress ghosts above the
// surface are antisymmetric images; velocity ghosts are mirrored, with the
// vertical velocity image enforcing the szz = 0 traction condition.
type FreeSurface struct {
	// Local subgrid dims this instance serves (the rank must own the z-low
	// face of the physical domain).
	Dims grid.Dims
}

// NewFreeSurface returns the FS2 condition for a subgrid.
func NewFreeSurface(d grid.Dims) *FreeSurface { return &FreeSurface{Dims: d} }

// ApplyStress writes the antisymmetric stress images above the surface.
// Call after every stress update.
func (fs *FreeSurface) ApplyStress(s *fd.State) {
	d := fs.Dims
	g := grid.Ghost
	for j := -g; j < d.NY+g; j++ {
		for i := -g; i < d.NX+g; i++ {
			// szz at integer levels: antisymmetric about k=-1/2.
			s.ZZ.Set(i, j, -1, -s.ZZ.At(i, j, 0))
			s.ZZ.Set(i, j, -2, -s.ZZ.At(i, j, 1))
			// sxz, syz at half levels: the k=-1 node lies exactly on the
			// surface (zero), the k=-2 node images -value(k=0).
			s.XZ.Set(i, j, -1, 0)
			s.XZ.Set(i, j, -2, -s.XZ.At(i, j, 0))
			s.YZ.Set(i, j, -1, 0)
			s.YZ.Set(i, j, -2, -s.YZ.At(i, j, 0))
		}
	}
}

// ApplyVelocity writes the velocity ghost images above the surface. Call
// after every velocity update. Horizontal velocities are mirrored
// (d/dz -> 0 at the surface); the vertical velocity image enforces the
// zero normal traction: (lam+2mu) dw/dz = -lam (du/dx + dv/dy).
func (fs *FreeSurface) ApplyVelocity(s *fd.State, m *medium.Medium) {
	d := fs.Dims
	g := grid.Ghost
	// The vz image reads one node below (i, j) on both horizontal axes, so
	// the outermost ghost row and column have no image.
	for j := -g + 1; j < d.NY+g-1; j++ {
		for i := -g + 1; i < d.NX+g-1; i++ {
			s.VX.Set(i, j, -1, s.VX.At(i, j, 0))
			s.VX.Set(i, j, -2, s.VX.At(i, j, 1))
			s.VY.Set(i, j, -1, s.VY.At(i, j, 0))
			s.VY.Set(i, j, -2, s.VY.At(i, j, 1))

			lam := m.Lam.At(i, j, 0)
			l2m := m.Lam2Mu.At(i, j, 0)
			// 2nd-order horizontal divergence at the surface node (the h
			// factors cancel against the dz discretization).
			div := (s.VX.At(i, j, 0) - s.VX.At(i-1, j, 0)) +
				(s.VY.At(i, j, 0) - s.VY.At(i, j-1, 0))
			w0 := s.VZ.At(i, j, 0)
			wm1 := w0 + lam/l2m*div
			s.VZ.Set(i, j, -1, wm1)
			s.VZ.Set(i, j, -2, 2*wm1-w0)
		}
	}
}

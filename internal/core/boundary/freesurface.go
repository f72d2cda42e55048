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
// Call after every stress update. Each padded row of the surface plane is
// one set of windows (ap := a[n0+off:][:ni], as the row kernels of fd take
// them), so the loop carries no bounds check; refApplyStress in
// boundary_test.go is the pointwise oracle.
func (fs *FreeSurface) ApplyStress(s *fd.State) {
	d := fs.Dims
	g := grid.Ghost
	ni := d.NX + 2*g
	zz, xz, yz := s.ZZ.Data(), s.XZ.Data(), s.YZ.Data()
	_, _, dz := s.ZZ.Strides()
	for j := -g; j < d.NY+g; j++ {
		n0 := s.ZZ.Idx(-g, j, 0)
		zz0 := zz[n0:][:ni]
		zz1 := zz[n0+dz:][:ni]
		zzm1 := zz[n0-dz:][:ni]
		zzm2 := zz[n0-2*dz:][:ni]
		xz0 := xz[n0:][:ni]
		xzm1 := xz[n0-dz:][:ni]
		xzm2 := xz[n0-2*dz:][:ni]
		yz0 := yz[n0:][:ni]
		yzm1 := yz[n0-dz:][:ni]
		yzm2 := yz[n0-2*dz:][:ni]
		for i := range zz0 {
			// szz at integer levels: antisymmetric about k=-1/2.
			zzm1[i] = -zz0[i]
			zzm2[i] = -zz1[i]
			// sxz, syz at half levels: the k=-1 node lies exactly on the
			// surface (zero), the k=-2 node images -value(k=0).
			xzm1[i] = 0
			xzm2[i] = -xz0[i]
			yzm1[i] = 0
			yzm2[i] = -yz0[i]
		}
	}
}

// ApplyVelocity writes the velocity ghost images above the surface. Call
// after every velocity update. Horizontal velocities are mirrored
// (d/dz -> 0 at the surface); the vertical velocity image enforces the
// zero normal traction: (lam+2mu) dw/dz = -lam (du/dx + dv/dy), lam/(lam+2mu)
// read from m.SurfaceRatio, whose rows are this pass's. Rows as in
// ApplyStress; refApplyVelocity in boundary_test.go is the pointwise oracle.
func (fs *FreeSurface) ApplyVelocity(s *fd.State, m *medium.Medium) {
	d := fs.Dims
	g := grid.Ghost
	// The vz image reads one node below (i, j) on both horizontal axes, so
	// the outermost ghost row and column have no image.
	ni := d.NX + 2*g - 2
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	_, dy, dz := s.VX.Strides()
	for j := -g + 1; j < d.NY+g-1; j++ {
		n0 := s.VX.Idx(-g+1, j, 0)
		u0 := u[n0:][:ni]
		u0m1x := u[n0-1:][:ni]
		u1 := u[n0+dz:][:ni]
		um1 := u[n0-dz:][:ni]
		um2 := u[n0-2*dz:][:ni]
		v0 := v[n0:][:ni]
		v0m1y := v[n0-dy:][:ni]
		v1 := v[n0+dz:][:ni]
		vm1 := v[n0-dz:][:ni]
		vm2 := v[n0-2*dz:][:ni]
		w0 := w[n0:][:ni]
		wm1 := w[n0-dz:][:ni]
		wm2 := w[n0-2*dz:][:ni]
		ratio := m.SurfaceRatio[(j+1)*ni:][:ni]
		for i := range u0 {
			um1[i] = u0[i]
			um2[i] = u1[i]
			vm1[i] = v0[i]
			vm2[i] = v1[i]
			// 2nd-order horizontal divergence at the surface node (the h
			// factors cancel against the dz discretization).
			div := (u0[i] - u0m1x[i]) + (v0[i] - v0m1y[i])
			w0i := w0[i]
			// The conversion keeps the product out of a fused add (arm64).
			wm1i := w0i + float32(ratio[i]*div)
			wm1[i] = wm1i
			wm2[i] = 2*wm1i - w0i
		}
	}
}

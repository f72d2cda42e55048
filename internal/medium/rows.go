package medium

import "repro/internal/grid"

// finalize fills the reciprocal and staggered arrays from the node arrays,
// one ghost layer beyond the interior so that stencils touching the subgrid
// edge have valid coefficients (a staggered average reaches one node further,
// and the frame is grid.Ghost = 2 wide). Like the fd kernels it walks (j,k)
// rows through per-offset subslice windows (ap := a[n0+off:][:ni]), so the
// inner loop carries no bounds checks — scripts/check_bce.sh guards this
// file. The reciprocals of mu the three harmonic means share — each node's is
// an operand of up to twelve of them, and is what MuI stores — are taken once
// per node, a padded k-plane at a time, two planes live. Every stored value
// is the float32 expression the pointwise form (refFinalize in
// medium_test.go) evaluates, operand for operand, so all fourteen arrays
// keep their bits.
func (m *Medium) finalize() {
	d := m.Dims
	rho, lam, mu := m.Rho.Data(), m.Lam.Data(), m.Mu.Data()
	lamI, muI, l2m := m.LamI.Data(), m.MuI.Data(), m.Lam2Mu.Data()
	bx, by, bz := m.BX.Data(), m.BY.Data(), m.BZ.Data()
	mxy, mxz, myz := m.MuXY.Data(), m.MuXZ.Data(), m.MuYZ.Data()
	_, dy, dz := m.Rho.Strides()
	ni := d.NX + 2*(grid.Ghost-1)

	// inv and invUp hold 1/mu over padded planes k and k+1.
	inv, invUp := make([]float32, dz), make([]float32, dz)
	recip := func(dst []float32, k int) {
		src := mu[m.Mu.Idx(-grid.Ghost, -grid.Ghost, k):][:len(dst)]
		for i := range dst {
			dst[i] = 1 / src[i]
		}
	}
	k0 := -(grid.Ghost - 1)
	recip(invUp, k0)
	for k := k0; k < d.NZ-k0; k++ {
		inv, invUp = invUp, inv
		recip(invUp, k+1)
		for j := k0; j < d.NY-k0; j++ {
			n0 := m.Rho.Idx(k0, j, k)
			p0 := n0 - m.Rho.Idx(-grid.Ghost, -grid.Ghost, k) // the row's offset in its plane
			rhoc := rho[n0:][:ni]
			rhox := rho[n0+1:][:ni]
			rhoy := rho[n0+dy:][:ni]
			rhoz := rho[n0+dz:][:ni]
			lamc := lam[n0:][:ni]
			muc := mu[n0:][:ni]
			ic := inv[p0:][:ni]
			ix := inv[p0+1:][:ni]
			iy := inv[p0+dy:][:ni]
			ixy := inv[p0+dy+1:][:ni]
			iz := invUp[p0:][:ni]
			ixz := invUp[p0+1:][:ni]
			iyz := invUp[p0+dy:][:ni]
			lamIr := lamI[n0:][:ni]
			muIr := muI[n0:][:ni]
			l2mr := l2m[n0:][:ni]
			bxr := bx[n0:][:ni]
			byr := by[n0:][:ni]
			bzr := bz[n0:][:ni]
			mxyr := mxy[n0:][:ni]
			mxzr := mxz[n0:][:ni]
			myzr := myz[n0:][:ni]
			for i := range rhoc {
				lamIr[i] = 1 / lamc[i]
				muIr[i] = ic[i]
				l2mr[i] = lamc[i] + 2*muc[i]
				// Reciprocal densities at velocity points (2-point
				// arithmetic mean of rho).
				bxr[i] = 2 / (rhoc[i] + rhox[i])
				byr[i] = 2 / (rhoc[i] + rhoy[i])
				bzr[i] = 2 / (rhoc[i] + rhoz[i])
				// Harmonic-mean mu at shear-stress points (4-point).
				mxyr[i] = 4 / (ic[i] + ix[i] + iy[i] + ixy[i])
				mxzr[i] = 4 / (ic[i] + ix[i] + iz[i] + ixz[i])
				myzr[i] = 4 / (ic[i] + iy[i] + iz[i] + iyz[i])
			}
		}
	}
}

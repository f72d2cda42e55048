package medium

import (
	"math"

	"repro/internal/cvm"
	"repro/internal/grid"
)

// writeRow stores padded x-row (j, k) of Rho, Lam, Mu, QP and QS from mats,
// the materials at i = -Ghost … NX+Ghost-1, through row windows like
// finalize's, checks every node for Unphysical and folds the interior ones
// into MinVs/MaxVp (the builtin min and max, which treat NaN and ±0 as
// math.Min and math.Max do, inline); refFromCVM in medium_test.go is the
// pointwise oracle.
func (m *Medium) writeRow(j, k int, mats []cvm.Material) {
	n0, ni := m.Rho.Idx(-grid.Ghost, j, k), m.Dims.NX+2*grid.Ghost
	rho, lam, mu := m.Rho.Data()[n0:][:ni], m.Lam.Data()[n0:][:ni], m.Mu.Data()[n0:][:ni]
	qp, qs, mats := m.QP.Data()[n0:][:ni], m.QS.Data()[n0:][:ni], mats[:ni]
	bad := m.Unphysical
	for i, mat := range mats {
		r, l, u := convert(mat)
		p, s := mat.Quality()
		rho[i], lam[i], mu[i], qp[i], qs[i] = float32(r), float32(l), float32(u), float32(p), float32(s)
		bad = bad || !(mat.Vp > 0 && mat.Rho > 0 && mat.Vs >= 0) || math.IsInf(mat.Vp+mat.Vs+mat.Rho, 0)
	}
	m.Unphysical = bad
	if j >= 0 && j < m.Dims.NY && k >= 0 && k < m.Dims.NZ {
		lo, hi := m.MinVs, m.MaxVp
		for _, mat := range mats[grid.Ghost : grid.Ghost+m.Dims.NX] {
			lo, hi = min(lo, mat.Vs), max(hi, mat.Vp)
		}
		m.MinVs, m.MaxVp = lo, hi
	}
}

// finalize fills the staggered arrays from the node arrays, one ghost layer
// beyond the interior so that stencils touching the subgrid edge have valid
// coefficients (a staggered average reaches one node further, and the frame
// is grid.Ghost = 2 wide). Like the fd kernels it walks (j,k) rows through
// per-offset subslice windows (ap := a[n0+off:][:ni]), so the inner loop
// carries no bounds checks — scripts/check_bce.sh guards this file. The
// reciprocals of mu the three harmonic means share — each node's is an
// operand of up to twelve of them — are taken once per node, a padded k-plane
// at a time, two planes live. Every stored value is the float32 expression
// the pointwise form (refFinalize in medium_test.go) evaluates, operand for
// operand, so all twelve arrays keep their bits.
func (m *Medium) finalize() {
	d := m.Dims
	rho, lam, mu := m.Rho.Data(), m.Lam.Data(), m.Mu.Data()
	l2m := m.Lam2Mu.Data()
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
			l2mr := l2m[n0:][:ni]
			bxr := bx[n0:][:ni]
			byr := by[n0:][:ni]
			bzr := bz[n0:][:ni]
			mxyr := mxy[n0:][:ni]
			mxzr := mxz[n0:][:ni]
			myzr := myz[n0:][:ni]
			for i := range rhoc {
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

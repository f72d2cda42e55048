package medium

import (
	"math"

	"repro/internal/cvm"
	"repro/internal/grid"
)

// writeRow stores padded x-row (j, k) from mats, the materials at i = -Ghost
// … NX+Ghost-1, through row windows like finalize's: Rho and Mu over the
// whole padded row; Lam and QS over the interior cells of an interior row;
// and on plane k = 0, lam of the nodes the free surface reads into
// SurfaceRatio, which finalize turns into the ratio. It checks every node for
// Unphysical and folds the interior ones into MinVs/MaxVp (the builtin min
// and max, which treat NaN and ±0 as math.Min and math.Max do, inline);
// refFromCVM in medium_test.go is the pointwise oracle.
func (m *Medium) writeRow(j, k int, mats []cvm.Material) {
	d, g := m.Dims, grid.Ghost
	n0, ni := m.Rho.Idx(-g, j, k), d.NX+2*g
	rho, mu, mats := m.Rho.Data()[n0:][:ni], m.Mu.Data()[n0:][:ni], mats[:ni]
	bad := m.Unphysical
	for i, mat := range mats {
		r, _, u := convert(mat)
		rho[i], mu[i] = float32(r), float32(u)
		bad = bad || !(mat.Vp > 0 && mat.Rho > 0 && mat.Vs >= 0) || math.IsInf(mat.Vp+mat.Vs+mat.Rho, 0)
	}
	m.Unphysical = bad
	if k == 0 && j >= -1 && j <= d.NY {
		surf := m.SurfaceRatio[(j+1)*(d.NX+2):][:d.NX+2]
		for i, mat := range mats[g-1:][:d.NX+2] {
			_, l, _ := convert(mat)
			surf[i] = float32(l)
		}
	}
	if j < 0 || j >= d.NY || k < 0 || k >= d.NZ {
		return
	}
	q0 := m.Lam.Idx(0, j, k)
	lam, qs := m.Lam.Data()[q0:][:d.NX], m.QS.Data()[q0:][:d.NX]
	lo, hi := m.MinVs, m.MaxVp
	for i, mat := range mats[g:][:d.NX] {
		_, l, _ := convert(mat)
		_, s := mat.Quality()
		lam[i], qs[i] = float32(l), float32(s)
		lo, hi = min(lo, mat.Vs), max(hi, mat.Vp)
	}
	m.MinVs, m.MaxVp = lo, hi
}

// finalize fills the staggered arrays from the node arrays over the
// subgrid's cells (a staggered average reaches one node further, into Rho's
// and Mu's frame), then turns SurfaceRatio's lam into lam/(lam+2mu). Like the
// fd kernels it walks (j,k) rows through per-offset subslice windows (ap :=
// a[n0+off:][:ni]), so the inner loop carries no bounds checks —
// scripts/check_bce.sh guards this file. The reciprocals of mu the three
// harmonic means share — each node's is an operand of up to twelve of them —
// are taken once per node, a padded k-plane at a time, two planes live. Every
// stored value is the float32 expression the pointwise form (refFinalize in
// medium_test.go) evaluates, operand for operand, so every array keeps its
// bits.
func (m *Medium) finalize() {
	d, g := m.Dims, grid.Ghost
	rho, lam, mu := m.Rho.Data(), m.Lam.Data(), m.Mu.Data()
	l2m := m.Lam2Mu.Data()
	bx, by, bz := m.BX.Data(), m.BY.Data(), m.BZ.Data()
	mxy, mxz, myz := m.MuXY.Data(), m.MuXZ.Data(), m.MuYZ.Data()
	_, dy, dz := m.Rho.Strides()
	ni := d.NX

	// inv and invUp hold 1/mu over padded planes k and k+1.
	inv, invUp := make([]float32, dz), make([]float32, dz)
	recip := func(dst []float32, k int) {
		src := mu[m.Mu.Idx(-g, -g, k):][:len(dst)]
		for i := range dst {
			dst[i] = 1 / src[i]
		}
	}
	recip(invUp, 0)
	for k := 0; k < d.NZ; k++ {
		inv, invUp = invUp, inv
		recip(invUp, k+1)
		for j := 0; j < d.NY; j++ {
			n0, q0 := m.Rho.Idx(0, j, k), m.Lam.Idx(0, j, k)
			p0 := n0 - m.Rho.Idx(-g, -g, k) // the row's offset in its plane
			rhoc := rho[n0:][:ni]
			rhox := rho[n0+1:][:ni]
			rhoy := rho[n0+dy:][:ni]
			rhoz := rho[n0+dz:][:ni]
			lamc := lam[q0:][:ni]
			muc := mu[n0:][:ni]
			ic := inv[p0:][:ni]
			ix := inv[p0+1:][:ni]
			iy := inv[p0+dy:][:ni]
			ixy := inv[p0+dy+1:][:ni]
			iz := invUp[p0:][:ni]
			ixz := invUp[p0+1:][:ni]
			iyz := invUp[p0+dy:][:ni]
			l2mr := l2m[q0:][:ni]
			bxr := bx[q0:][:ni]
			byr := by[q0:][:ni]
			bzr := bz[q0:][:ni]
			mxyr := mxy[q0:][:ni]
			mxzr := mxz[q0:][:ni]
			myzr := myz[q0:][:ni]
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
	// lam/(lam+2mu) on the free surface's nodes: the quotient of lam and
	// the node's Lam2Mu, one rounding each, as the image read them.
	for j := -1; j <= d.NY; j++ {
		surf := m.SurfaceRatio[(j+1)*(d.NX+2):][:d.NX+2]
		mur := mu[m.Mu.Idx(-1, j, 0):][:d.NX+2]
		for i, l := range surf {
			surf[i] = l / (l + 2*mur[i])
		}
	}
}

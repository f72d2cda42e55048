package fd

import "repro/internal/grid"

// Taper is a separable factor the stress sweeps multiply each stress by just
// before storing it, and the velocity sweep each velocity by as it loads it:
// fx[i]·(fy[j]·fz[k]) at local cell (i, j, k), the row's factor fy·fz formed
// first, as the sponge's own pass forms it. Each axis
// covers the local range padded by grid.Ghost, so X[i+grid.Ghost] is column
// i's factor. The zero Taper multiplies nothing.
type Taper struct{ X, Y, Z []float32 }

// At is the factor of local cell (i, j, k).
func (tp Taper) At(i, j, k int) float32 {
	g := grid.Ghost
	return tp.X[i+g] * (tp.Y[j+g] * tp.Z[k+g])
}

// Windows returns tp's factors over b's columns, rows and planes, nil for
// the zero Taper.
func (tp Taper) Windows(b Box) (fx, fy, fz []float32) {
	if tp.X == nil {
		return nil, nil, nil
	}
	g := grid.Ghost
	return tp.X[b.I0+g : b.I1+g], tp.Y[b.J0+g : b.J1+g], tp.Z[b.K0+g : b.K1+g]
}

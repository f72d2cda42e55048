package boundary

import "repro/internal/grid"

// NewSponge builds a single-rank sponge (local == global).
func NewSponge(d grid.Dims, width int, alpha float64, faces FaceSet) *Sponge {
	return NewSpongeGlobal(d, d, [3]int{}, width, alpha, faces)
}

// AllAbsorbing returns the M8 configuration: absorbing on the four sides
// and the bottom, free surface (not absorbing) on top (z low).
func AllAbsorbing() FaceSet {
	return FaceSet{XLo: true, XHi: true, YLo: true, YHi: true, ZLo: false, ZHi: true}
}

// Package fd implements the explicit staggered-grid finite-difference
// kernels of AWP-ODC (§II.B): 4th-order in space, 2nd-order in time,
// velocity–stress formulation. One production kernel pair — a windowed row
// sweep over precomputed coefficients, cache-blocked — and two rungs of the
// paper's single-CPU optimization study (§IV.B) that lead to it: a naive
// variant with per-operand divisions, and the pointwise precomputed variant
// the tests use as the reference.
//
// Staggering convention (Graves 1996, the scheme AWP-ODC uses): with
// storage index (i,j,k),
//
//	vx at (i+1/2, j, k)    sxx,syy,szz at (i, j, k)
//	vy at (i, j+1/2, k)    sxy at (i+1/2, j+1/2, k)
//	vz at (i, j, k+1/2)    sxz at (i+1/2, j, k+1/2)
//	                       syz at (i, j+1/2, k+1/2)
package fd

import (
	"fmt"
	"math"

	"repro/internal/grid"
)

// FD coefficients of the 4th-order staggered first-derivative (Eq. 3).
const (
	C1 = 9.0 / 8.0
	C2 = -1.0 / 24.0
)

// State holds the nine wavefield components on one subgrid.
type State struct {
	Dims       grid.Dims
	VX, VY, VZ *grid.Field3
	XX, YY, ZZ *grid.Field3
	XY, XZ, YZ *grid.Field3
}

// NewState allocates a zeroed wavefield with a grid.Ghost-wide frame on
// every field.
func NewState(d grid.Dims) *State {
	f := grid.LaneFields(d, grid.Ghost, grid.LaneState, 9)
	return &State{
		Dims: d,
		VX:   f(), VY: f(), VZ: f(),
		XX: f(), YY: f(), ZZ: f(),
		XY: f(), XZ: f(), YZ: f(),
	}
}

// Fields returns the nine component fields in canonical order
// (vx, vy, vz, sxx, syy, szz, sxy, sxz, syz).
func (s *State) Fields() []*grid.Field3 {
	return []*grid.Field3{s.VX, s.VY, s.VZ, s.XX, s.YY, s.ZZ, s.XY, s.XZ, s.YZ}
}

// FieldNames matches the order of Fields.
var FieldNames = []string{"vx", "vy", "vz", "sxx", "syy", "szz", "sxy", "sxz", "syz"}

// Sections names the nine padded component arrays as restart sections.
func (s *State) Sections() []grid.Section {
	secs := make([]grid.Section, 9)
	for i, f := range s.Fields() {
		secs[i] = grid.Section{Name: FieldNames[i], F32: f.Data()}
	}
	return secs
}

// Velocities returns only the velocity components.
func (s *State) Velocities() []*grid.Field3 { return []*grid.Field3{s.VX, s.VY, s.VZ} }

// Stresses returns only the stress components.
func (s *State) Stresses() []*grid.Field3 {
	return []*grid.Field3{s.XX, s.YY, s.ZZ, s.XY, s.XZ, s.YZ}
}

// Clone deep-copies the state into fields placed as NewState places them.
func (s *State) Clone() *State {
	c := NewState(s.Dims)
	src := s.Fields()
	for i, f := range c.Fields() {
		f.CopyFrom(src[i])
	}
	return c
}

// L2Diff returns the root-sum-square difference over all nine components.
func (s *State) L2Diff(o *State) float64 {
	var sum float64
	sf, of := s.Fields(), o.Fields()
	for i := range sf {
		d := sf[i].L2Diff(of[i])
		sum += d * d
	}
	// sqrt of sum of squared L2 norms.
	return math.Sqrt(sum)
}

// MaxAbs returns the largest absolute value across all components.
func (s *State) MaxAbs() float32 {
	var m float32
	for _, f := range s.Fields() {
		if v := f.MaxAbs(); v > m {
			m = v
		}
	}
	return m
}

// Box is a half-open index region [I0,I1)x[J0,J1)x[K0,K1) in local indices.
// The kernels take boxes of the interior; negative indices and those past the
// dims name ghost cells (the solver's active box reaches into the frame).
type Box struct {
	I0, I1, J0, J1, K0, K1 int
}

// FullBox covers the whole interior of d.
func FullBox(d grid.Dims) Box {
	return Box{0, d.NX, 0, d.NY, 0, d.NZ}
}

// Empty reports whether the box contains no cells.
func (b Box) Empty() bool { return b.I1 <= b.I0 || b.J1 <= b.J0 || b.K1 <= b.K0 }

// Cells returns the number of cells in the box (0 if empty).
func (b Box) Cells() int {
	if b.Empty() {
		return 0
	}
	return (b.I1 - b.I0) * (b.J1 - b.J0) * (b.K1 - b.K0)
}

// Intersect returns the cells in both boxes (an empty box if none).
func (b Box) Intersect(o Box) Box {
	return Box{
		I0: max(b.I0, o.I0), I1: min(b.I1, o.I1),
		J0: max(b.J0, o.J0), J1: min(b.J1, o.J1),
		K0: max(b.K0, o.K0), K1: min(b.K1, o.K1),
	}
}

// Hull returns the smallest box holding both; an empty box adds nothing.
func (b Box) Hull(o Box) Box {
	switch {
	case o.Empty():
		return b
	case b.Empty():
		return o
	}
	return Box{
		I0: min(b.I0, o.I0), I1: max(b.I1, o.I1),
		J0: min(b.J0, o.J0), J1: max(b.J1, o.J1),
		K0: min(b.K0, o.K0), K1: max(b.K1, o.K1),
	}
}

// Contains reports whether every cell of o lies in b.
func (b Box) Contains(o Box) bool { return o.Empty() || b.Intersect(o) == o }

func (b Box) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)x[%d,%d)", b.I0, b.I1, b.J0, b.J1, b.K0, b.K1)
}

// Shrink returns the box shrunk by w cells on the faces indicated by the
// masks; used to split a subgrid into halo-independent interior and
// boundary strips for computation/communication overlap (§IV.C).
func (b Box) Shrink(w int, loX, hiX, loY, hiY, loZ, hiZ bool) Box {
	out := b
	if loX {
		out.I0 += w
	}
	if hiX {
		out.I1 -= w
	}
	if loY {
		out.J0 += w
	}
	if hiY {
		out.J1 -= w
	}
	if loZ {
		out.K0 += w
	}
	if hiZ {
		out.K1 -= w
	}
	return out
}

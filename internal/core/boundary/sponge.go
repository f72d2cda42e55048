package boundary

import (
	"fmt"
	"math"

	"repro/internal/core/fd"
	"repro/internal/core/sched"
	"repro/internal/grid"
)

// Sponge implements the Cerjan et al. (1985) sponge-layer ABCs (§II.D):
// inside a layer of Width cells along each absorbing face, every wavefield
// component is multiplied per step by a taper
//
//	g(d) = exp(-(Alpha * (Width - d))^2)
//
// where d is the distance in cells from the physical domain boundary. The
// sponge is unconditionally stable but absorbs less effectively than PML —
// the fallback AWP-ODC uses when split-field PMLs go unstable on strong
// media gradients.
//
// The taper is defined in global coordinates and applied to ghost cells as
// well, so that in a decomposed run every rank damps exactly the same
// physical cells (including its copies of neighbor cells) and the result
// is independent of the decomposition and of where in the step the damping
// runs relative to the halo exchange.
type Sponge struct {
	Local  grid.Dims
	Global grid.Dims
	Off    [3]int // global index of local (0,0,0)
	Width  int
	Alpha  float64
	Faces  FaceSet // faces of the *global* domain that absorb

	taper []float32 // taper[d] for d in [0, Width)

	axes axisTapers
}

// axisTapers is fx/fy/fz over the local range padded by grid.Ghost; uniform
// reports that every factor is 1 (nothing to damp). fx is 1 throughout
// [xlo, xhi): the absorbing zones are a prefix and a suffix of the padded
// x-range.
type axisTapers struct {
	fx, fy, fz []float32
	xlo, xhi   int
	uniform    bool
}

// DefaultSpongeWidth and DefaultSpongeAlpha are the classic Cerjan tuning.
const (
	DefaultSpongeWidth = 20
	DefaultSpongeAlpha = 0.015
)

// NewSponge builds a single-rank sponge (local == global).
func NewSponge(d grid.Dims, width int, alpha float64, faces FaceSet) *Sponge {
	return NewSpongeGlobal(d, d, [3]int{}, width, alpha, faces)
}

// NewSpongeGlobal builds a sponge for one rank's subgrid of a decomposed
// global domain. faces describes the absorbing faces of the global domain;
// the rank applies whatever part of the taper zone intersects its padded
// subgrid.
func NewSpongeGlobal(local, global grid.Dims, off [3]int, width int, alpha float64, faces FaceSet) *Sponge {
	if width <= 0 {
		panic(fmt.Sprintf("boundary: invalid sponge width %d", width))
	}
	sp := &Sponge{Local: local, Global: global, Off: off, Width: width, Alpha: alpha, Faces: faces}
	sp.taper = make([]float32, width)
	for dd := 0; dd < width; dd++ {
		x := alpha * float64(width-dd)
		sp.taper[dd] = float32(math.Exp(-x * x))
	}
	t := &sp.axes
	var ux, uy, uz bool
	t.fx, ux = sp.axisTaper(local.NX, off[0], global.NX, faces.XLo, faces.XHi)
	t.fy, uy = sp.axisTaper(local.NY, off[1], global.NY, faces.YLo, faces.YHi)
	t.fz, uz = sp.axisTaper(local.NZ, off[2], global.NZ, faces.ZLo, faces.ZHi)
	t.uniform = ux && uy && uz
	for t.xlo < len(t.fx) && t.fx[t.xlo] != 1 {
		t.xlo++
	}
	for t.xhi = t.xlo; t.xhi < len(t.fx) && t.fx[t.xhi] == 1; t.xhi++ {
	}
	return sp
}

// factorAxis returns the taper for global index g along an axis of n
// global cells with the given absorbing sides, or 1 outside the zones.
func (sp *Sponge) factorAxis(g, n int, lo, hi bool) float32 {
	if lo && g < sp.Width {
		d := g
		if d < 0 {
			d = 0
		}
		return sp.taper[d]
	}
	if hi && g >= n-sp.Width {
		d := n - 1 - g
		if d < 0 {
			d = 0
		}
		return sp.taper[d]
	}
	return 1
}

// Apply damps all nine components in the sponge zones, ghost cells
// included. Call once per time step, after the stress exchange.
func (sp *Sponge) Apply(s *fd.State) { sp.ApplyPool(s, nil) }

// ApplyPool is Apply with the per-field k-planes run as a work queue on
// the persistent pool (nil or serial pool: inline). Planes are disjoint
// rows of the padded arrays, so the parallel form is race-free and
// bit-identical to the serial one.
func (sp *Sponge) ApplyPool(s *fd.State, p *sched.Pool) {
	g := grid.Ghost
	l := sp.Local
	t := &sp.axes
	if t.uniform {
		return // subgrid nowhere near an absorbing zone
	}
	fields := s.Fields()
	nz := l.NZ + 2*g
	p.ForEachN(len(fields)*nz, func(idx int) {
		f := fields[idx/nz]
		k := idx%nz - g
		sp.applyPlane(f, k, t)
	})
}

// ApplyBox is ApplyPool over the part of the padded subgrid inside box
// (local indices, ghost-inclusive). A factor times ±0 is that ±0, so where
// everything outside box is zero it stores the bits ApplyPool would.
func (sp *Sponge) ApplyBox(s *fd.State, p *sched.Pool, box fd.Box) {
	g := grid.Ghost
	l := sp.Local
	t := &sp.axes
	box = box.Intersect(fd.Box{I0: -g, I1: l.NX + g, J0: -g, J1: l.NY + g, K0: -g, K1: l.NZ + g})
	if t.uniform || box.Empty() {
		return
	}
	fields := s.Fields()
	nz := box.K1 - box.K0
	p.ForEachN(len(fields)*nz, func(idx int) {
		f := fields[idx/nz]
		k := box.K0 + idx%nz
		zk := t.fz[k+g]
		for j := box.J0; j < box.J1; j++ {
			base := f.Idx(box.I0, j, k)
			t.dampRow(f.Data()[base:base+box.I1-box.I0], box.I0+g, t.fy[j+g]*zk)
		}
	})
}

// axisTaper returns the taper of one axis — n local cells at global offset
// off, padded by grid.Ghost, of nGlobal global cells with the given absorbing
// sides — and whether every factor in it is 1.
func (sp *Sponge) axisTaper(n, off, nGlobal int, lo, hi bool) (f []float32, uniform bool) {
	g := grid.Ghost
	f = make([]float32, n+2*g)
	uniform = true
	for i := range f {
		f[i] = sp.factorAxis(clampIdx(off+i-g, nGlobal), nGlobal, lo, hi)
		if f[i] != 1 {
			uniform = false
		}
	}
	return f, uniform
}

// applyPlane damps one padded k-plane of one field through row slices.
func (sp *Sponge) applyPlane(f *grid.Field3, k int, t *axisTapers) {
	g := grid.Ghost
	l := sp.Local
	zk := t.fz[k+g]
	for j := -g; j < l.NY+g; j++ {
		sp.applyRow(f, j, k, t, t.fy[j+g]*zk)
	}
}

// applyRow damps one padded x-row of one field; fyz is the combined y/z
// taper for the row.
func (sp *Sponge) applyRow(f *grid.Field3, j, k int, t *axisTapers, fyz float32) {
	g := grid.Ghost
	base := f.Idx(-g, j, k)
	t.dampRow(f.Data()[base:base+sp.Local.NX+2*g], 0, fyz)
}

// dampRow multiplies row, whose first value sits at padded x-index p0, by
// fx*fyz. Outside [xlo, xhi) that is two multiplies per value; inside, fx
// is 1 and the factor is the row's constant fyz — nothing at all when that
// is 1 too. x*1 == x exactly, so the split changes no stored bit.
func (t *axisTapers) dampRow(row []float32, p0 int, fyz float32) {
	n := len(row)
	lo := min(max(t.xlo-p0, 0), n)
	hi := min(max(t.xhi-p0, lo), n)
	fx := t.fx[p0 : p0+n]
	head, mid, tail := row[:lo], row[lo:hi], row[hi:]
	for i, f := range fx[:lo] {
		head[i] *= f * fyz
	}
	if fyz != 1 {
		for i := range mid {
			mid[i] *= fyz
		}
	}
	for i, f := range fx[hi:] {
		tail[i] *= f * fyz
	}
}

// clampIdx clamps a (possibly ghost) global index into [0, n).
func clampIdx(g, n int) int {
	if g < 0 {
		return 0
	}
	if g >= n {
		return n - 1
	}
	return g
}

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
//	g(d) = exp(-(alpha * (Width - d))^2)
//
// where alpha is NewSpongeGlobal's and d is the distance in cells from the
// physical domain boundary. The sponge is unconditionally stable but absorbs
// less effectively than PML — the fallback AWP-ODC uses when split-field
// PMLs go unstable on strong media gradients.
//
// The taper is defined in global coordinates, so the factor of a cell does
// not depend on which rank holds it: a rank that damps its own cells stores
// the bits a neighbour's copy of them would get from the same multiply, and
// the solver damps owned cells only (DESIGN.md §7, "The sponge rides the
// tiles").
type Sponge struct {
	Width int
	Faces FaceSet // faces of the *global* domain that absorb

	taper []float32 // taper[d] for d in [0, Width)

	axes axisTapers
}

// axisTapers is fx/fy/fz over the local range padded by grid.Ghost. ones is
// the box of local indices where every factor is 1: the absorbing zones are a
// prefix and a suffix of each padded axis, so along each axis the factors
// that are 1 form one range. vec selects the 8-lane walker (sponge_rows.go).
type axisTapers struct {
	fx, fy, fz []float32
	padded     fd.Box
	ones       fd.Box
	vec        bool
}

// DefaultSpongeWidth and DefaultSpongeAlpha are the classic Cerjan tuning.
const (
	DefaultSpongeWidth = 20
	DefaultSpongeAlpha = 0.015
)

// NewSpongeGlobal builds a sponge for one rank's subgrid of a decomposed
// global domain. faces describes the absorbing faces of the global domain;
// the rank applies whatever part of the taper zone intersects its padded
// subgrid.
func NewSpongeGlobal(local, global grid.Dims, off [3]int, width int, alpha float64, faces FaceSet) *Sponge {
	if width <= 0 {
		panic(fmt.Sprintf("boundary: invalid sponge width %d", width))
	}
	sp := &Sponge{Width: width, Faces: faces}
	sp.taper = make([]float32, width)
	for dd := 0; dd < width; dd++ {
		x := alpha * float64(width-dd)
		sp.taper[dd] = float32(math.Exp(-x * x))
	}
	t := &sp.axes
	g := grid.Ghost
	t.padded = fd.Box{I0: -g, I1: local.NX + g, J0: -g, J1: local.NY + g, K0: -g, K1: local.NZ + g}
	t.fx, t.ones.I0, t.ones.I1 = sp.axisTaper(local.NX, off[0], global.NX, faces.XLo, faces.XHi)
	t.fy, t.ones.J0, t.ones.J1 = sp.axisTaper(local.NY, off[1], global.NY, faces.YLo, faces.YHi)
	t.fz, t.ones.K0, t.ones.K1 = sp.axisTaper(local.NZ, off[2], global.NZ, faces.ZLo, faces.ZHi)
	t.vec = fd.Vector
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

// axisTaper returns the taper of one axis — n local cells at global offset
// off, padded by grid.Ghost, of nGlobal global cells with the given absorbing
// sides — and the local range [lo, hi) where it is 1 (empty, at the padded
// end, if no factor is).
func (sp *Sponge) axisTaper(n, off, nGlobal int, lo, hi bool) (f []float32, onesLo, onesHi int) {
	g := grid.Ghost
	f = make([]float32, n+2*g)
	for i := range f {
		f[i] = sp.factorAxis(clampIdx(off+i-g, nGlobal), nGlobal, lo, hi)
	}
	a := 0
	for a < len(f) && f[a] != 1 {
		a++
	}
	b := a
	for b < len(f) && f[b] == 1 {
		b++
	}
	return f, a - g, b - g
}

// Taper returns the sponge's factors as the production stress sweeps take
// them (fd.UpdateStressTapered, attenuation's FusedStressTapered): fx, fy and
// fz over the padded subgrid, alpha already in them. The sweeps store what
// DampBox stores.
func (sp *Sponge) Taper() fd.Taper {
	t := &sp.axes
	return fd.Taper{X: t.fx, Y: t.fy, Z: t.fz}
}

// DampBox multiplies every value of fields inside b (local, ghost-inclusive
// indices, clamped to the padded subgrid) by its taper fx·(fy·fz), a k-plane
// and a field at a time, each plane one or a few calls of the row walker.
// A box inside the region where the taper is 1 is skipped; on a plane whose
// fz is 1 the rows whose fy is 1 damp their x zones only. Either way a value
// stores what x·(fx·(fy·fz)) stores, skipped where that factor is 1.
func (sp *Sponge) DampBox(fields []*grid.Field3, b fd.Box) {
	t := &sp.axes
	b = b.Intersect(t.padded)
	if t.ones.Contains(b) {
		return
	}
	for k := b.K0; k < b.K1; k++ {
		for _, f := range fields {
			t.dampPlane(f, b, k)
		}
	}
}

// ApplyPool damps all nine components over the padded subgrid, ghosts
// included, one (field, k-plane) of DampBox per item of a pool queue (nil or
// serial pool: inline). The solver no longer runs it: it is the padded pass
// of the tests' two-pass oracle and of bench's sponge probe, and moves into
// bench/ with the probe when the benchmark is next revised.
func (sp *Sponge) ApplyPool(s *fd.State, p *sched.Pool) {
	t := &sp.axes
	if t.ones.Contains(t.padded) {
		return // subgrid nowhere near an absorbing zone
	}
	fields := s.Fields()
	nz := t.padded.K1 - t.padded.K0
	p.ForEachN(len(fields)*nz, func(idx int) {
		k := t.padded.K0 + idx%nz
		t.dampPlane(fields[idx/nz], t.padded, k)
	})
}

// dampPlane damps plane k of f inside b. Rows whose fy·fz is 1 — those in
// ones' y range on a plane in its z range — hold values to damp only in the
// x zones; every other row is damped whole.
func (t *axisTapers) dampPlane(f *grid.Field3, b fd.Box, k int) {
	fz := t.fz[k+grid.Ghost]
	ja, jb := b.J1, b.J1 // rows [ja, jb) have fy·fz == 1
	if k >= t.ones.K0 && k < t.ones.K1 {
		ja = min(max(t.ones.J0, b.J0), b.J1)
		jb = min(max(t.ones.J1, ja), b.J1)
	}
	ia := min(max(t.ones.I0, b.I0), b.I1)
	ib := min(max(t.ones.I1, ia), b.I1)
	t.walk(f, b.I0, b.I1, b.J0, ja, k, fz)
	t.walk(f, b.I0, ia, ja, jb, k, fz)
	t.walk(f, ib, b.I1, ja, jb, k, fz)
	t.walk(f, b.I0, b.I1, jb, b.J1, k, fz)
}

// walk damps the rows [j0, j1) of plane k of f over [i0, i1) in one walker
// call.
func (t *axisTapers) walk(f *grid.Field3, i0, i1, j0, j1, k int, fz float32) {
	if i1 <= i0 || j1 <= j0 {
		return
	}
	g := grid.Ghost
	_, stride, _ := f.Strides()
	base := f.Idx(i0, j0, k)
	x := f.Data()[base : base+(j1-j0-1)*stride+i1-i0]
	dampRows(x, stride, t.fx[i0+g:i1+g], t.fy[j0+g:j1+g], fz, t.vec)
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

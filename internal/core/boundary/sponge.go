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

	// tapers holds the per-axis taper slices over the padded local range,
	// per ghost width, built at first use (the classic stepper asks for
	// grid.Ghost every step, the time-tiled engine for its deeper frame
	// every stage window). A Sponge belongs to one rank's goroutine.
	tapers map[int]*axisTapers
}

// axisTapers is one ghost width's fx/fy/fz; uniform reports that every
// factor is 1 (nothing to damp). fx is 1 throughout [xlo, xhi): the absorbing
// zones are a prefix and a suffix of the padded x-range.
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
	t := sp.tapersFor(g)
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

// ApplyBoxFields damps the given fields over box — which may extend into
// the ghost region, as deep as the fields' ghost width — using the same
// global-coordinate taper as Apply. It is the windowed form used by the
// time-tiled engine, where each leapfrog step inside a super-step damps
// only the skewed window it just updated. Planes of distinct (field, k)
// pairs are disjoint, so the pooled form is race-free and bit-identical
// to a serial sweep.
func (sp *Sponge) ApplyBoxFields(fields []*grid.Field3, box fd.Box, p *sched.Pool) {
	if len(fields) == 0 || box.Empty() {
		return
	}
	gw := fields[0].G()
	t := sp.tapersFor(gw)
	if t.uniform {
		return
	}
	nk := box.K1 - box.K0
	w := box.I1 - box.I0
	p.ForEachN(len(fields)*nk, func(idx int) {
		f := fields[idx/nk]
		k := box.K0 + idx%nk
		zk := t.fz[k+gw]
		for j := box.J0; j < box.J1; j++ {
			base := f.Idx(box.I0, j, k)
			t.dampRow(f.Data()[base:base+w], box.I0+gw, t.fy[j+gw]*zk)
		}
	})
}

// tapersFor returns the per-axis tapers over the local range padded by g
// ghosts (grid.Ghost for the classic stepper; the time-tiled engine damps
// recomputed extension cells up to 4T deep), built at first use.
func (sp *Sponge) tapersFor(g int) *axisTapers {
	t := sp.tapers[g]
	if t == nil {
		t = &axisTapers{}
		var ux, uy, uz bool
		t.fx, ux = sp.axisTaper(sp.Local.NX, sp.Off[0], g, sp.Global.NX, sp.Faces.XLo, sp.Faces.XHi)
		t.fy, uy = sp.axisTaper(sp.Local.NY, sp.Off[1], g, sp.Global.NY, sp.Faces.YLo, sp.Faces.YHi)
		t.fz, uz = sp.axisTaper(sp.Local.NZ, sp.Off[2], g, sp.Global.NZ, sp.Faces.ZLo, sp.Faces.ZHi)
		t.uniform = ux && uy && uz
		for t.xlo < len(t.fx) && t.fx[t.xlo] != 1 {
			t.xlo++
		}
		for t.xhi = t.xlo; t.xhi < len(t.fx) && t.fx[t.xhi] == 1; t.xhi++ {
		}
		if sp.tapers == nil {
			sp.tapers = map[int]*axisTapers{}
		}
		sp.tapers[g] = t
	}
	return t
}

// axisTaper returns the taper of one axis — n local cells at global offset
// off, padded by g ghosts, of nGlobal global cells with the given absorbing
// sides — and whether every factor in it is 1.
func (sp *Sponge) axisTaper(n, off, g, nGlobal int, lo, hi bool) (f []float32, uniform bool) {
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

// ApplySurfaceFused is ApplyPool with the surface-velocity work fused in:
// for each interior surface row j, one work item damps row (j, k=0) of the
// three velocity components and then calls surface(j) — the solver's PGV
// fold — so the row is damped, folded, and still warm in cache, instead of
// being re-streamed by a separate pass after the sponge. surface must not
// be nil. The velocity k=0 plane items damp only their ghost-j rows; every
// other (field, plane) item is unchanged. Work items touch disjoint rows,
// so the fusion is race-free and the damped values are bit-identical to
// ApplyPool. When the subgrid is nowhere near an absorbing zone the damping
// is skipped but the surface rows still run (the fold must happen every
// step).
func (sp *Sponge) ApplySurfaceFused(s *fd.State, p *sched.Pool, surface func(j int)) {
	g := grid.Ghost
	l := sp.Local
	t := sp.tapersFor(g)
	if t.uniform {
		p.ForEachN(l.NY, surface)
		return
	}
	fields := s.Fields()
	vels := s.Velocities()
	nz := l.NZ + 2*g
	nplane := len(fields) * nz
	p.ForEachN(nplane+l.NY, func(idx int) {
		if idx < nplane {
			fi, k := idx/nz, idx%nz-g
			if k == 0 && fi < len(vels) {
				// Interior rows of the velocity surface planes belong to
				// the fused items below; keep only the ghost-j rows here.
				for j := -g; j < 0; j++ {
					sp.applyRow(fields[fi], j, 0, t, t.fy[j+g]*t.fz[g])
				}
				for j := l.NY; j < l.NY+g; j++ {
					sp.applyRow(fields[fi], j, 0, t, t.fy[j+g]*t.fz[g])
				}
				return
			}
			sp.applyPlane(fields[fi], k, t)
			return
		}
		j := idx - nplane
		fyz := t.fy[j+g] * t.fz[g]
		for _, f := range vels {
			sp.applyRow(f, j, 0, t, fyz)
		}
		surface(j)
	})
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

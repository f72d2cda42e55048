package boundary

import (
	"fmt"
	"math"

	"repro/internal/core/fd"
	"repro/internal/grid"
	"repro/internal/medium"
)

// PML implements a split-field multi-axial perfectly matched layer zone
// (§II.D). Inside the zone each wavefield component is carried as three
// directional splits phi = phi_x + phi_y + phi_z, where split s collects
// the terms of the governing equation containing s-derivatives. Each split
// is damped:
//
//	d phi_s/dt + d_s * phi_s = L_s(phi)
//
// with d_s = d(l) for the split normal to the zone face, and d_s = p*d(l)
// for the two parallel splits — the multi-axial stabilization of
// Meza-Fajardo & Papageorgiou (2008); p = 0 recovers the classic PML,
// which is unstable under strong medium gradients.
//
// The damping profile is the standard polynomial ramp
//
//	d(l) = d0 * ((l+1/2)/W)^2,  d0 = 3*Vp*ln(1/R) / (2*W*h)
//
// rising from ~0 at the interior interface to d0 at the outer boundary.
type PML struct {
	Zone fd.Box
	Axis grid.Axis
	Side grid.Side
	P    float64 // M-PML parallel damping ratio

	// split[s] holds the s-direction split of the nine components, stored
	// densely on the zone's own cells (local index = global - zone origin,
	// no ghost frame: a split is read and written at its cell only). The shear
	// stress whose strain has no s-derivative takes no term of split s, so
	// that field is nil: split x has no YZ, split y no XZ, split z no XY.
	split [3]*fd.State
	// damp[l] is d(l) for depth-from-boundary l in [0, width).
	damp []float64
	// xSlab counts the cells at the zone's low and high x ends that an x
	// slab owns: they take x's damping whatever the zone's normal (an x
	// zone's whole extent; a y or z zone's first and last width cells where
	// BuildPML gives it the full x extent next to an absorbing x face).
	xSlab [2]int
	// coef holds the split-update coefficients of step coefDt as rows of
	// 6·nx values (see Prepare); coefRow and coefPlane are the offsets in
	// coef of one zone row and one zone plane.
	coef               []float32
	coefRow, coefPlane int
	coefDt             float64
}

// DefaultPMLWidth is the M8 production width (10 cells).
const DefaultPMLWidth = 10

// DefaultMPMLRatio is the multi-axial damping ratio.
const DefaultMPMLRatio = 0.1

// DefaultPMLReflection is the design reflection coefficient R.
const DefaultPMLReflection = 1e-5

// NewPML builds one zone. vpMax and h size the damping profile.
func NewPML(zone fd.Box, axis grid.Axis, side grid.Side, width int, p, rcoef, vpMax, h float64) *PML {
	if zone.Empty() || width <= 0 {
		panic(fmt.Sprintf("boundary: invalid PML zone %v width %d", zone, width))
	}
	zd := grid.Dims{NX: zone.I1 - zone.I0, NY: zone.J1 - zone.J0, NZ: zone.K1 - zone.K0}
	pm := &PML{Zone: zone, Axis: axis, Side: side, P: p}
	if axis == grid.X {
		pm.xSlab[side] = zd.NX
	}
	// A row sweep streams the same offset of all 24 split fields, so they are
	// placed apart in the L1 set period (grid.LaneFields). No stencil reads a
	// split, so they hold the zone's cells and nothing more (ghost 0).
	field := grid.LaneFields(zd, 0, grid.LanePML, 24)
	for s := range pm.split {
		sp := &fd.State{
			Dims: zd,
			VX:   field(), VY: field(), VZ: field(),
			XX: field(), YY: field(), ZZ: field(),
		}
		for t, f := range [3]**grid.Field3{&sp.XY, &sp.XZ, &sp.YZ} {
			if t != 2-s { // x has no YZ, y no XZ, z no XY
				*f = field()
			}
		}
		pm.split[s] = sp
	}
	d0 := 3 * vpMax * math.Log(1/rcoef) / (2 * float64(width) * h)
	pm.damp = make([]float64, width)
	for l := 0; l < width; l++ {
		x := (float64(width-l) - 0.5) / float64(width)
		pm.damp[l] = d0 * x * x
	}
	return pm
}

// Splits returns the zone's three directional split states, each dense on
// the zone's cells, with the one shear field of each that takes no term nil.
func (pm *PML) Splits() [3]*fd.State { return pm.split }

// Sections names the zone's 24 split arrays as restart sections after its
// face, of which a rank has one zone at most: "pml.xlow.y.vx" is vx's y split.
// Each holds the zone's Zone.Cells() values.
func (pm *PML) Sections() []grid.Section {
	var secs []grid.Section
	for s, sp := range pm.split {
		for i, f := range sp.Fields() {
			if f != nil {
				name := fmt.Sprintf("pml.%v%v.%v.%s", pm.Axis, pm.Side, grid.Axis(s), fd.FieldNames[i])
				secs = append(secs, grid.Section{Name: name, F32: f.Data()})
			}
		}
	}
	return secs
}

// owner returns the axis whose damping a cell of the zone takes and the
// index into damp of its depth, for the cell at x-offset i of the zone's nx
// and offset r of n along the zone's normal. The x slabs own their cells
// first, at the depth from their outer x face; every other cell is the
// zone's own, at the depth from the zone's outer face. Depths are clamped
// to the profile.
func (pm *PML) owner(i, nx, r, n int) (grid.Axis, int) {
	ax, c := pm.Axis, r
	switch {
	case i < pm.xSlab[grid.Low]:
		ax, c = grid.X, i
	case i >= nx-pm.xSlab[grid.High]:
		ax, c = grid.X, nx-1-i
	case pm.Side == grid.High:
		c = n - 1 - r
	}
	return ax, min(max(c, 0), len(pm.damp)-1)
}

// Prepare builds the coefficients for time step dt: phi_s' = dec_s·phi_s +
// gain_s·dt·T_s. They are stored as rows of 6·nx values — dec_x, gain_x,
// dec_y, gain_y, dec_z, gain_z, each nx long over the zone's x extent — one
// row per zone-local plane along the zone's normal, in zone order, each
// entry the coefficients of its cell's owner and depth (owner): an x zone
// has one row, a y or z zone one row per j or k whose x-slab entries vary
// with the x-offset and whose others are constant. A zone row (j,k) reads
// the row at coefAt(j,k), so the row kernels read coefficient windows and
// never a depth. The box kernels only read the rows, so whoever runs them
// concurrently (the solver's tile queue) must have called Prepare first;
// the whole-zone wrappers call it themselves.
func (pm *PML) Prepare(dt float64) {
	if pm.coef != nil && pm.coefDt == dt {
		return
	}
	// The coefficients depend on a cell only through its owner and damping
	// depth, so the float64 divisions are done 3·width times per dt. The
	// conversions keep a compiler from fusing a product into the add after
	// it (arm64 does), so every architecture rounds as amd64 does.
	type coef struct{ dec, gain [3]float32 }
	var byOwner [3][]coef
	for ax := range byOwner {
		byOwner[ax] = make([]coef, len(pm.damp))
		for l, d := range pm.damp {
			for s := 0; s < 3; s++ {
				ds := pm.P * d
				if s == ax {
					ds = d
				}
				half := float64(ds * dt / 2)
				den := 1 + half
				byOwner[ax][l].dec[s] = float32((1 - half) / den)
				byOwner[ax][l].gain[s] = float32(1 / den)
			}
		}
	}
	z := pm.Zone
	nx := z.I1 - z.I0
	nrows := 1
	pm.coefRow, pm.coefPlane = 0, 0
	switch pm.Axis {
	case grid.Y:
		nrows, pm.coefRow = z.J1-z.J0, 6*nx
	case grid.Z:
		nrows, pm.coefPlane = z.K1-z.K0, 6*nx
	}
	pm.coef = make([]float32, nrows*6*nx)
	for r := 0; r < nrows; r++ {
		row := pm.coef[r*6*nx:][:6*nx]
		for i := 0; i < nx; i++ {
			ax, l := pm.owner(i, nx, r, nrows)
			c := &byOwner[ax][l]
			for s := 0; s < 3; s++ {
				row[2*s*nx+i], row[(2*s+1)*nx+i] = c.dec[s], c.gain[s]
			}
		}
	}
	pm.coefDt = dt
}

// coefAt returns the offset in coef of zone row (j,k)'s coefficient row.
func (pm *PML) coefAt(j, k int) int {
	return (j-pm.Zone.J0)*pm.coefRow + (k-pm.Zone.K0)*pm.coefPlane
}

// checkBox panics unless b lies inside the zone and Prepare(dt) has run.
func (pm *PML) checkBox(dt float64, b fd.Box) {
	z := pm.Zone
	if b.I0 < z.I0 || b.I1 > z.I1 || b.J0 < z.J0 || b.J1 > z.J1 || b.K0 < z.K0 || b.K1 > z.K1 {
		panic(fmt.Sprintf("boundary: box %v outside PML zone %v", b, z))
	}
	if pm.coef == nil || pm.coefDt != dt {
		panic(fmt.Sprintf("boundary: PML coefficients prepared for dt %g, stepped with %g", pm.coefDt, dt))
	}
}

// UpdateVelocity advances the velocity splits in the whole zone and writes
// the recombined velocities back to the global state. Must be called in
// place of the interior kernel for zone cells.
func (pm *PML) UpdateVelocity(s *fd.State, m *medium.Medium, dt float64) {
	pm.Prepare(dt)
	pm.UpdateVelocityBox(s, m, dt, pm.Zone)
}

// UpdateStress advances the stress splits in the whole zone and writes the
// recombined stresses back to the global state.
func (pm *PML) UpdateStress(s *fd.State, m *medium.Medium, dt float64) {
	pm.Prepare(dt)
	pm.UpdateStressBox(s, m, dt, pm.Zone)
}

// PMLInterior returns the box BuildPML's zones leave of a subgrid of dims d:
// width cells off every face in faces. It is empty when the zones would
// consume the subgrid along some axis.
func PMLInterior(d grid.Dims, faces FaceSet, width int) fd.Box {
	return fd.FullBox(d).Shrink(width, faces.XLo, faces.XHi, faces.YLo, faces.YHi, faces.ZLo, faces.ZHi)
}

// BuildPML constructs the non-overlapping shell of PML zones for a
// single-rank (or per-rank, with faces masked to owned physical faces)
// subgrid, cut so that every zone's rows run the subgrid's full x extent
// where they can: y zones span the full x and z extent, z zones the full x
// extent over the y interior, and x zones keep the x slabs' cells no y or z
// zone takes (the y and z interior). Each cell keeps the damping of the
// first slab it lies in, x before y before z, so a y or z zone's cells in
// an x slab take x's depth and coefficients (PML.owner). Returns the zones
// and the remaining interior box. Zones that leave no interior are a
// caller's bug and panic: solver.Prepare turns a user's too-wide PMLWidth
// into an error before any rank gets here.
func BuildPML(d grid.Dims, faces FaceSet, width int, p, rcoef, vpMax, h float64) ([]*PML, fd.Box) {
	in := PMLInterior(d, faces, width)
	if in.Empty() {
		panic(fmt.Sprintf("boundary: PML zones (width %d) consume the whole %v subgrid", width, d))
	}
	var slab [2]int
	if faces.XLo {
		slab[grid.Low] = width
	}
	if faces.XHi {
		slab[grid.High] = width
	}
	var zones []*PML
	add := func(on bool, zone fd.Box, ax grid.Axis, sd grid.Side) {
		if on {
			pm := NewPML(zone, ax, sd, width, p, rcoef, vpMax, h)
			if ax != grid.X {
				pm.xSlab = slab
			}
			zones = append(zones, pm)
		}
	}
	add(faces.XLo, fd.Box{I0: 0, I1: width, J0: in.J0, J1: in.J1, K0: in.K0, K1: in.K1}, grid.X, grid.Low)
	add(faces.XHi, fd.Box{I0: d.NX - width, I1: d.NX, J0: in.J0, J1: in.J1, K0: in.K0, K1: in.K1}, grid.X, grid.High)
	add(faces.YLo, fd.Box{I0: 0, I1: d.NX, J0: 0, J1: width, K0: 0, K1: d.NZ}, grid.Y, grid.Low)
	add(faces.YHi, fd.Box{I0: 0, I1: d.NX, J0: d.NY - width, J1: d.NY, K0: 0, K1: d.NZ}, grid.Y, grid.High)
	add(faces.ZLo, fd.Box{I0: 0, I1: d.NX, J0: in.J0, J1: in.J1, K0: 0, K1: width}, grid.Z, grid.Low)
	add(faces.ZHi, fd.Box{I0: 0, I1: d.NX, J0: in.J0, J1: in.J1, K0: d.NZ - width, K1: d.NZ}, grid.Z, grid.High)
	return zones, in
}

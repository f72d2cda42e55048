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
	Zone  fd.Box
	Axis  grid.Axis
	Side  grid.Side
	Width int
	P     float64 // M-PML parallel damping ratio

	// split[s] holds the s-direction split of all nine components, stored
	// on a zone-sized grid (local index = global - zone origin).
	split [3]*fd.State
	// damp[l] is d(l) for depth-from-boundary l in [0, Width).
	damp []float64
	// rows are the split-update coefficients of step coefDt, expanded to
	// x-row slices (see Prepare).
	rows   []pmlRowCoef
	coefDt float64
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
	pm := &PML{Zone: zone, Axis: axis, Side: side, Width: width, P: p}
	// A row sweep streams the same offset of all 27 split fields, so they are
	// placed apart in the L1 set period (grid.LaneFields).
	field := grid.LaneFields(zd, grid.Ghost, grid.LanePML, 27)
	for s := range pm.split {
		pm.split[s] = &fd.State{
			Dims: zd,
			VX:   field(), VY: field(), VZ: field(),
			XX: field(), YY: field(), ZZ: field(),
			XY: field(), XZ: field(), YZ: field(),
		}
	}
	d0 := 3 * vpMax * math.Log(1/rcoef) / (2 * float64(width) * h)
	pm.damp = make([]float64, width)
	for l := 0; l < width; l++ {
		x := (float64(width-l) - 0.5) / float64(width)
		pm.damp[l] = d0 * x * x
	}
	return pm
}

// Splits returns the zone's three directional split states, each on the
// zone-sized grid.
func (pm *PML) Splits() [3]*fd.State { return pm.split }

// Sections names the zone's 27 split arrays as restart sections after its
// face, of which a rank has one zone at most: "pml.xlow.y.vx" is vx's y split.
func (pm *PML) Sections() []grid.Section {
	var secs []grid.Section
	for s, sp := range pm.split {
		for _, sec := range sp.Sections() {
			sec.Name = fmt.Sprintf("pml.%v%v.%v.%s", pm.Axis, pm.Side, grid.Axis(s), sec.Name)
			secs = append(secs, sec)
		}
	}
	return secs
}

// depth returns the index into damp of offset c along the zone's normal
// axis, n cells long: the distance in cells from the low edge of a Low
// zone or the high edge of a High zone, clamped to the profile.
func (pm *PML) depth(c, n int) int {
	if pm.Side == grid.High {
		c = n - 1 - c
	}
	return min(max(c, 0), len(pm.damp)-1)
}

// pmlRowCoef holds the split-update coefficients along one x-row of the
// zone: phi_s' = dec[s][i]*phi_s + gain[s][i]*dt*T_s at x-offset i.
type pmlRowCoef struct{ dec, gain [3][]float32 }

// Prepare builds the coefficient rows for time step dt. An x-normal zone has
// one row whose entries vary with the x-offset; a y- or z-normal zone has one
// constant row per depth, picked by the row's j or k — either way the row
// kernels read coefficient slices and never a depth. The box kernels only
// read the rows, so whoever runs them concurrently (the solver's tile queue)
// must have called Prepare first; the whole-zone wrappers call it themselves.
func (pm *PML) Prepare(dt float64) {
	if pm.rows != nil && pm.coefDt == dt {
		return
	}
	// The coefficients depend on a cell only through its damping depth, so
	// the float64 divisions are done Width times per dt.
	type coef struct{ dec, gain [3]float32 }
	byDepth := make([]coef, len(pm.damp))
	for l, d := range pm.damp {
		for s := 0; s < 3; s++ {
			ds := pm.P * d
			if grid.Axis(s) == pm.Axis {
				ds = d
			}
			den := 1 + ds*dt/2
			byDepth[l].dec[s] = float32((1 - ds*dt/2) / den)
			byDepth[l].gain[s] = float32(1 / den)
		}
	}
	nx := pm.Zone.I1 - pm.Zone.I0
	nrows := len(byDepth)
	if pm.Axis == grid.X {
		nrows = 1
	}
	rows := make([]pmlRowCoef, nrows)
	buf := make([]float32, nrows*6*nx)
	for r := range rows {
		row := &rows[r]
		for s := 0; s < 3; s++ {
			row.dec[s], row.gain[s], buf = buf[:nx:nx], buf[nx:2*nx:2*nx], buf[2*nx:]
		}
		for i := 0; i < nx; i++ {
			l := r
			if pm.Axis == grid.X {
				l = pm.depth(i, nx)
			}
			for s := 0; s < 3; s++ {
				row.dec[s][i], row.gain[s][i] = byDepth[l].dec[s], byDepth[l].gain[s]
			}
		}
	}
	pm.rows, pm.coefDt = rows, dt
}

// rowCoef returns the coefficient row of zone row (j,k).
func (pm *PML) rowCoef(j, k int) *pmlRowCoef {
	z := pm.Zone
	switch pm.Axis {
	case grid.Y:
		return &pm.rows[pm.depth(j-z.J0, z.J1-z.J0)]
	case grid.Z:
		return &pm.rows[pm.depth(k-z.K0, z.K1-z.K0)]
	}
	return &pm.rows[0]
}

// checkBox panics unless b lies inside the zone and Prepare(dt) has run.
func (pm *PML) checkBox(dt float64, b fd.Box) {
	z := pm.Zone
	if b.I0 < z.I0 || b.I1 > z.I1 || b.J0 < z.J0 || b.J1 > z.J1 || b.K0 < z.K0 || b.K1 > z.K1 {
		panic(fmt.Sprintf("boundary: box %v outside PML zone %v", b, z))
	}
	if pm.rows == nil || pm.coefDt != dt {
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
// subgrid: x zones span the full y/z extent, y zones exclude the x zones,
// z zones exclude both. Returns the zones and the remaining interior box.
// Zones that leave no interior are a caller's bug and panic: solver.Prepare
// turns a user's too-wide PMLWidth into an error before any rank gets here.
func BuildPML(d grid.Dims, faces FaceSet, width int, p, rcoef, vpMax, h float64) ([]*PML, fd.Box) {
	in := PMLInterior(d, faces, width)
	if in.Empty() {
		panic(fmt.Sprintf("boundary: PML zones (width %d) consume the whole %v subgrid", width, d))
	}
	var zones []*PML
	add := func(on bool, zone fd.Box, ax grid.Axis, sd grid.Side) {
		if on {
			zones = append(zones, NewPML(zone, ax, sd, width, p, rcoef, vpMax, h))
		}
	}
	add(faces.XLo, fd.Box{I0: 0, I1: width, J0: 0, J1: d.NY, K0: 0, K1: d.NZ}, grid.X, grid.Low)
	add(faces.XHi, fd.Box{I0: d.NX - width, I1: d.NX, J0: 0, J1: d.NY, K0: 0, K1: d.NZ}, grid.X, grid.High)
	add(faces.YLo, fd.Box{I0: in.I0, I1: in.I1, J0: 0, J1: width, K0: 0, K1: d.NZ}, grid.Y, grid.Low)
	add(faces.YHi, fd.Box{I0: in.I0, I1: in.I1, J0: d.NY - width, J1: d.NY, K0: 0, K1: d.NZ}, grid.Y, grid.High)
	add(faces.ZLo, fd.Box{I0: in.I0, I1: in.I1, J0: in.J0, J1: in.J1, K0: 0, K1: width}, grid.Z, grid.Low)
	add(faces.ZHi, fd.Box{I0: in.I0, I1: in.I1, J0: in.J0, J1: in.J1, K0: d.NZ - width, K1: d.NZ}, grid.Z, grid.High)
	return zones, in
}

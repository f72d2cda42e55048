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
	// coef[l] are the split-update coefficients of damp[l] at step coefDt.
	coef   []pmlCoef
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
	for s := 0; s < 3; s++ {
		pm.split[s] = fd.NewState(zd)
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

// dampIndex returns the index into damp (and into the coefficient table)
// of global cell (i,j,k): its distance in cells from the inner
// (interior-facing) edge of the zone, clamped to the profile.
func (pm *PML) dampIndex(i, j, k int) int {
	var l int
	switch pm.Axis {
	case grid.X:
		if pm.Side == grid.Low {
			l = i - pm.Zone.I0
		} else {
			l = pm.Zone.I1 - 1 - i
		}
	case grid.Y:
		if pm.Side == grid.Low {
			l = j - pm.Zone.J0
		} else {
			l = pm.Zone.J1 - 1 - j
		}
	default:
		if pm.Side == grid.Low {
			l = k - pm.Zone.K0
		} else {
			l = pm.Zone.K1 - 1 - k
		}
	}
	if l < 0 {
		l = 0
	}
	if l >= len(pm.damp) {
		l = len(pm.damp) - 1
	}
	return l
}

// pmlCoef holds the split-update coefficients of one damping depth:
// phi_s' = dec[s]*phi_s + gain[s]*dt*T_s.
type pmlCoef struct{ dec, gain [3]float32 }

// coefTable returns the per-depth coefficients for time step dt. They
// depend on the cell only through its damping index, so the float64
// divisions are done Width times per dt, not three times per cell per call.
func (pm *PML) coefTable(dt float64) []pmlCoef {
	if pm.coef != nil && pm.coefDt == dt {
		return pm.coef
	}
	pm.coef = make([]pmlCoef, len(pm.damp))
	pm.coefDt = dt
	for l, d := range pm.damp {
		c := &pm.coef[l]
		for s := 0; s < 3; s++ {
			ds := pm.P * d
			if grid.Axis(s) == pm.Axis {
				ds = d
			}
			den := 1 + ds*dt/2
			c.dec[s] = float32((1 - ds*dt/2) / den)
			c.gain[s] = float32(1 / den)
		}
	}
	return pm.coef
}

// UpdateVelocity advances the velocity splits in the zone and writes the
// recombined velocities back to the global state. Must be called in place
// of the interior kernel for zone cells.
func (pm *PML) UpdateVelocity(s *fd.State, m *medium.Medium, dt float64) {
	c1, c2 := float32(fd.C1), float32(fd.C2)
	dth := float32(dt / m.H)
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
	bx, by, bz := m.BX.Data(), m.BY.Data(), m.BZ.Data()
	dx, dy, dz := s.VX.Strides()
	z := pm.Zone
	coef := pm.coefTable(dt)

	for k := z.K0; k < z.K1; k++ {
		for j := z.J0; j < z.J1; j++ {
			for i := z.I0; i < z.I1; i++ {
				n := s.VX.Idx(i, j, k)
				li, lj, lk := i-z.I0, j-z.J0, k-z.K0
				cf := &coef[pm.dampIndex(i, j, k)]

				// Directional force terms (already scaled by dt/h and 1/rho).
				uTx := dth * bx[n] * (c1*(xx[n+dx]-xx[n]) + c2*(xx[n+2*dx]-xx[n-dx]))
				uTy := dth * bx[n] * (c1*(xy[n]-xy[n-dy]) + c2*(xy[n+dy]-xy[n-2*dy]))
				uTz := dth * bx[n] * (c1*(xz[n]-xz[n-dz]) + c2*(xz[n+dz]-xz[n-2*dz]))
				vTx := dth * by[n] * (c1*(xy[n]-xy[n-dx]) + c2*(xy[n+dx]-xy[n-2*dx]))
				vTy := dth * by[n] * (c1*(yy[n+dy]-yy[n]) + c2*(yy[n+2*dy]-yy[n-dy]))
				vTz := dth * by[n] * (c1*(yz[n]-yz[n-dz]) + c2*(yz[n+dz]-yz[n-2*dz]))
				wTx := dth * bz[n] * (c1*(xz[n]-xz[n-dx]) + c2*(xz[n+dx]-xz[n-2*dx]))
				wTy := dth * bz[n] * (c1*(yz[n]-yz[n-dy]) + c2*(yz[n+dy]-yz[n-2*dy]))
				wTz := dth * bz[n] * (c1*(zz[n+dz]-zz[n]) + c2*(zz[n+2*dz]-zz[n-dz]))

				var sum [3]float32
				for sdir := 0; sdir < 3; sdir++ {
					sp := pm.split[sdir]
					var tU, tV, tW float32
					switch sdir {
					case 0:
						tU, tV, tW = uTx, vTx, wTx
					case 1:
						tU, tV, tW = uTy, vTy, wTy
					default:
						tU, tV, tW = uTz, vTz, wTz
					}
					nu := fd.Quiesce(cf.dec[sdir]*sp.VX.At(li, lj, lk) + cf.gain[sdir]*tU)
					nv := fd.Quiesce(cf.dec[sdir]*sp.VY.At(li, lj, lk) + cf.gain[sdir]*tV)
					nw := fd.Quiesce(cf.dec[sdir]*sp.VZ.At(li, lj, lk) + cf.gain[sdir]*tW)
					sp.VX.Set(li, lj, lk, nu)
					sp.VY.Set(li, lj, lk, nv)
					sp.VZ.Set(li, lj, lk, nw)
					sum[0] += nu
					sum[1] += nv
					sum[2] += nw
				}
				u[n], v[n], w[n] = fd.Quiesce(sum[0]), fd.Quiesce(sum[1]), fd.Quiesce(sum[2])
			}
		}
	}
}

// UpdateStress advances the stress splits in the zone and writes the
// recombined stresses back to the global state.
func (pm *PML) UpdateStress(s *fd.State, m *medium.Medium, dt float64) {
	c1, c2 := float32(fd.C1), float32(fd.C2)
	dth := float32(dt / m.H)
	u, v, w := s.VX.Data(), s.VY.Data(), s.VZ.Data()
	xx, yy, zz := s.XX.Data(), s.YY.Data(), s.ZZ.Data()
	xy, xz, yz := s.XY.Data(), s.XZ.Data(), s.YZ.Data()
	lam, l2m := m.Lam.Data(), m.Lam2Mu.Data()
	mxy, mxz, myz := m.MuXY.Data(), m.MuXZ.Data(), m.MuYZ.Data()
	dx, dy, dz := s.VX.Strides()
	z := pm.Zone
	coef := pm.coefTable(dt)

	for k := z.K0; k < z.K1; k++ {
		for j := z.J0; j < z.J1; j++ {
			for i := z.I0; i < z.I1; i++ {
				n := s.VX.Idx(i, j, k)
				li, lj, lk := i-z.I0, j-z.J0, k-z.K0
				cf := &coef[pm.dampIndex(i, j, k)]

				exx := dth * (c1*(u[n]-u[n-dx]) + c2*(u[n+dx]-u[n-2*dx]))
				eyy := dth * (c1*(v[n]-v[n-dy]) + c2*(v[n+dy]-v[n-2*dy]))
				ezz := dth * (c1*(w[n]-w[n-dz]) + c2*(w[n+dz]-w[n-2*dz]))
				duy := dth * (c1*(u[n+dy]-u[n]) + c2*(u[n+2*dy]-u[n-dy]))
				dvx := dth * (c1*(v[n+dx]-v[n]) + c2*(v[n+2*dx]-v[n-dx]))
				duz := dth * (c1*(u[n+dz]-u[n]) + c2*(u[n+2*dz]-u[n-dz]))
				dwx := dth * (c1*(w[n+dx]-w[n]) + c2*(w[n+2*dx]-w[n-dx]))
				dvz := dth * (c1*(v[n+dz]-v[n]) + c2*(v[n+2*dz]-v[n-dz]))
				dwy := dth * (c1*(w[n+dy]-w[n]) + c2*(w[n+2*dy]-w[n-dy]))

				// Per-direction contributions to each stress component.
				type contrib struct{ tx, ty, tz float32 }
				cXX := contrib{l2m[n] * exx, lam[n] * eyy, lam[n] * ezz}
				cYY := contrib{lam[n] * exx, l2m[n] * eyy, lam[n] * ezz}
				cZZ := contrib{lam[n] * exx, lam[n] * eyy, l2m[n] * ezz}
				cXY := contrib{mxy[n] * dvx, mxy[n] * duy, 0}
				cXZ := contrib{mxz[n] * dwx, 0, mxz[n] * duz}
				cYZ := contrib{0, myz[n] * dwy, myz[n] * dvz}

				var sXX, sYY, sZZ, sXY, sXZ, sYZ float32
				for sdir := 0; sdir < 3; sdir++ {
					sp := pm.split[sdir]
					pick := func(c contrib) float32 {
						switch sdir {
						case 0:
							return c.tx
						case 1:
							return c.ty
						default:
							return c.tz
						}
					}
					nxx := cf.dec[sdir]*sp.XX.At(li, lj, lk) + cf.gain[sdir]*pick(cXX)
					nyy := cf.dec[sdir]*sp.YY.At(li, lj, lk) + cf.gain[sdir]*pick(cYY)
					nzz := cf.dec[sdir]*sp.ZZ.At(li, lj, lk) + cf.gain[sdir]*pick(cZZ)
					nxy := cf.dec[sdir]*sp.XY.At(li, lj, lk) + cf.gain[sdir]*pick(cXY)
					nxz := cf.dec[sdir]*sp.XZ.At(li, lj, lk) + cf.gain[sdir]*pick(cXZ)
					nyz := cf.dec[sdir]*sp.YZ.At(li, lj, lk) + cf.gain[sdir]*pick(cYZ)
					sp.XX.Set(li, lj, lk, nxx)
					sp.YY.Set(li, lj, lk, nyy)
					sp.ZZ.Set(li, lj, lk, nzz)
					sp.XY.Set(li, lj, lk, nxy)
					sp.XZ.Set(li, lj, lk, nxz)
					sp.YZ.Set(li, lj, lk, nyz)
					sXX += nxx
					sYY += nyy
					sZZ += nzz
					sXY += nxy
					sXZ += nxz
					sYZ += nyz
				}
				xx[n], yy[n], zz[n] = sXX, sYY, sZZ
				xy[n], xz[n], yz[n] = sXY, sXZ, sYZ
			}
		}
	}
}

// BuildPML constructs the non-overlapping shell of PML zones for a
// single-rank (or per-rank, with faces masked to owned physical faces)
// subgrid: x zones span the full y/z extent, y zones exclude the x zones,
// z zones exclude both. Returns the zones and the remaining interior box.
func BuildPML(d grid.Dims, faces FaceSet, width int, p, rcoef, vpMax, h float64) ([]*PML, fd.Box) {
	interior := fd.FullBox(d)
	var zones []*PML
	add := func(zone fd.Box, ax grid.Axis, sd grid.Side) {
		if !zone.Empty() {
			zones = append(zones, NewPML(zone, ax, sd, width, p, rcoef, vpMax, h))
		}
	}
	if faces.XLo {
		add(fd.Box{I0: 0, I1: width, J0: 0, J1: d.NY, K0: 0, K1: d.NZ}, grid.X, grid.Low)
		interior.I0 = width
	}
	if faces.XHi {
		add(fd.Box{I0: d.NX - width, I1: d.NX, J0: 0, J1: d.NY, K0: 0, K1: d.NZ}, grid.X, grid.High)
		interior.I1 = d.NX - width
	}
	if faces.YLo {
		add(fd.Box{I0: interior.I0, I1: interior.I1, J0: 0, J1: width, K0: 0, K1: d.NZ}, grid.Y, grid.Low)
		interior.J0 = width
	}
	if faces.YHi {
		add(fd.Box{I0: interior.I0, I1: interior.I1, J0: d.NY - width, J1: d.NY, K0: 0, K1: d.NZ}, grid.Y, grid.High)
		interior.J1 = d.NY - width
	}
	if faces.ZLo {
		add(fd.Box{I0: interior.I0, I1: interior.I1, J0: interior.J0, J1: interior.J1, K0: 0, K1: width}, grid.Z, grid.Low)
		interior.K0 = width
	}
	if faces.ZHi {
		add(fd.Box{I0: interior.I0, I1: interior.I1, J0: interior.J0, J1: interior.J1, K0: d.NZ - width, K1: d.NZ}, grid.Z, grid.High)
		interior.K1 = d.NZ - width
	}
	if interior.Empty() {
		panic(fmt.Sprintf("boundary: PML zones (width %d) consume the whole %v subgrid", width, d))
	}
	return zones, interior
}

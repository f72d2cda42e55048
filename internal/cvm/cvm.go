// Package cvm provides synthetic community velocity models standing in for
// the proprietary SCEC CVM4 and Harvard CVM-H databases the paper's mesh
// generator queries (§III.B). Two backends are provided, mirroring the two
// the paper supports:
//
//   - Model: a rule-based model (CVM4-like) with a depth-dependent crustal
//     background, embedded low-velocity sedimentary basins, and the M8
//     production constraints (Vs floor, Qs = 50·Vs, Qp = 2·Qs);
//   - Layered: a static depth-profile database queried by interpolation
//     (CVM-H-like).
//
// Coordinates are meters in a local Cartesian frame: x east, y north,
// z depth (positive down), with (0,0) at the model's southwest corner —
// the analogue of the UTM projection used for M8.
package cvm

import (
	"fmt"
	"math"
)

// Material is the property triple extracted per mesh point.
type Material struct {
	Vp  float64 // P-wave speed, m/s
	Vs  float64 // S-wave speed, m/s
	Rho float64 // density, kg/m^3
}

// Quality returns anelastic quality factors from the empirical relations
// used for M8 (§VII.B): Qs = 50·Vs with Vs in km/s, Qp = 2·Qs.
func (m Material) Quality() (qp, qs float64) {
	qs = 50 * m.Vs / 1000
	qp = 2 * qs
	return qp, qs
}

// Model is a queryable 3D velocity model.
type Querier interface {
	// Query returns material properties at (x, y, depth) in meters.
	Query(x, y, z float64) Material
}

// Basin is an ellipsoidal low-velocity sedimentary body whose velocity
// reduction tapers from full strength at the surface center to zero at the
// ellipsoid boundary.
type Basin struct {
	Name     string
	CX, CY   float64 // center, m
	RX, RY   float64 // horizontal semi-axes, m
	Depth    float64 // maximum depth extent, m
	SurfVs   float64 // Vs at the basin center surface, m/s
	SurfVpVs float64 // Vp/Vs ratio inside the basin
	SurfRho  float64 // density at center surface, kg/m^3
}

// Model is the rule-based (CVM4-like) synthetic model.
type Model struct {
	// Extent of the model region, m. Queries are clamped inside.
	LX, LY, LZ float64
	// Background crust parameters.
	SurfaceVs float64 // background Vs at the free surface, m/s
	GradVs    float64 // Vs gradient scale: Vs(z) = SurfaceVs + GradVs*sqrt(z)
	MaxVs     float64 // Vs cap at depth, m/s
	VpVs      float64 // background Vp/Vs ratio
	MinVs     float64 // floor applied after basins (400 m/s for M8)
	FixedRho  float64 // if > 0, overrides the Nafe–Drake density everywhere
	Basins    []Basin
}

// SoCal returns a southern-California-like model spanning lx×ly×lz meters,
// with analogues of the Los Angeles, San Bernardino, Ventura and Coachella
// basins placed at the fractional positions they occupy in the 810×405 km
// M8 domain (Fig. 20). minVs is the Vs floor (400 m/s for M8, larger for
// cheaper runs).
func SoCal(lx, ly, lz, minVs float64) *Model {
	frac := func(fx, fy float64) (float64, float64) { return fx * lx, fy * ly }
	lax, lay := frac(0.52, 0.40)
	sbx, sby := frac(0.62, 0.52)
	vnx, vny := frac(0.40, 0.47)
	cox, coy := frac(0.78, 0.33)
	return &Model{
		LX: lx, LY: ly, LZ: lz,
		SurfaceVs: 1700,
		GradVs:    38, // m/s per sqrt(m): ~2.9 km/s at 1 km, capped below
		MaxVs:     4500,
		VpVs:      math.Sqrt(3),
		MinVs:     minVs,
		Basins: []Basin{
			{Name: "LA", CX: lax, CY: lay, RX: 0.09 * lx, RY: 0.07 * ly, Depth: 8000, SurfVs: 450, SurfVpVs: 2.0, SurfRho: 1900},
			{Name: "SanBernardino", CX: sbx, CY: sby, RX: 0.045 * lx, RY: 0.05 * ly, Depth: 2000, SurfVs: 500, SurfVpVs: 2.0, SurfRho: 1950},
			{Name: "Ventura", CX: vnx, CY: vny, RX: 0.06 * lx, RY: 0.045 * ly, Depth: 6000, SurfVs: 480, SurfVpVs: 2.0, SurfRho: 1900},
			{Name: "Coachella", CX: cox, CY: coy, RX: 0.05 * lx, RY: 0.04 * ly, Depth: 4000, SurfVs: 520, SurfVpVs: 2.0, SurfRho: 1950},
		},
	}
}

// Homogeneous returns a model with uniform properties, for analytic tests.
func Homogeneous(m Material) *Model {
	return &Model{
		LX: math.Inf(1), LY: math.Inf(1), LZ: math.Inf(1),
		SurfaceVs: m.Vs, GradVs: 0, MaxVs: m.Vs,
		VpVs:     m.Vp / m.Vs,
		MinVs:    0,
		FixedRho: m.Rho,
	}
}

// clamp limits v to [0, max]; infinite extents pass through.
func clamp(v, max float64) float64 {
	if v < 0 {
		return 0
	}
	if !math.IsInf(max, 1) && v > max {
		return max
	}
	return v
}

// Query implements Querier.
func (m *Model) Query(x, y, z float64) Material {
	x = clamp(x, m.LX)
	y = clamp(y, m.LY)
	z = clamp(z, m.LZ)
	vs, vp, rho := m.background(z)
	// Basin override: take the strongest (lowest-Vs) basin influence.
	for i := range m.Basins {
		b := &m.Basins[i]
		if bvs, bvp, brho, in := b.sample(x, y, z, vs); in && bvs < vs {
			vs, vp, rho = bvs, bvp, brho
		}
	}
	return m.finish(vs, vp, rho)
}

// background is the crustal material at clamped depth z.
func (m *Model) background(z float64) (vs, vp, rho float64) {
	vs = m.SurfaceVs + m.GradVs*math.Sqrt(z)
	if vs > m.MaxVs {
		vs = m.MaxVs
	}
	vp = vs * m.VpVs
	return vs, vp, nafeDrake(vp)
}

// finish applies the Vs floor and the fixed density.
func (m *Model) finish(vs, vp, rho float64) Material {
	if vs < m.MinVs {
		ratio := m.MinVs / vs
		vs = m.MinVs
		vp *= ratio
	}
	if m.FixedRho > 0 {
		rho = m.FixedRho
	}
	return Material{Vp: vp, Vs: vs, Rho: rho}
}

// sample evaluates the basin's material at (x,y,z). The basin velocity
// grades from SurfVs at the center surface toward the background velocity
// bg at the ellipsoid boundary.
func (b *Basin) sample(x, y, z, bg float64) (vs, vp, rho float64, in bool) {
	dx := (x - b.CX) / b.RX
	dy := (y - b.CY) / b.RY
	dz := z / b.Depth
	r2 := dx*dx + dy*dy + dz*dz
	if r2 >= 1 {
		return 0, 0, 0, false
	}
	// Smooth taper: w=1 at center-surface, 0 at boundary.
	w := (1 - r2) * (1 - r2)
	vs = b.SurfVs*w + bg*(1-w)
	vp = vs * (b.SurfVpVs*w + math.Sqrt(3)*(1-w))
	rho = b.SurfRho*w + nafeDrake(vp)*(1-w)
	return vs, vp, rho, true
}

// nafeDrake is the Nafe–Drake curve relating density to Vp (Brocher 2005
// regression), the standard rule CVM4 applies. vp in m/s, rho in kg/m^3.
func nafeDrake(vp float64) float64 {
	v := vp / 1000 // km/s
	rho := 1.6612*v - 0.4721*v*v + 0.0671*v*v*v - 0.0043*v*v*v*v + 0.000106*v*v*v*v*v
	if rho < 1.0 {
		rho = 1.0
	}
	return rho * 1000
}

// Layered is the CVM-H-like backend: a static table of depth-indexed
// material layers with piecewise-linear interpolation, available at a
// configurable vertical resolution (the real CVM-H ships three).
type Layered struct {
	// Depths are layer-top depths in meters, ascending from 0.
	Depths []float64
	Props  []Material
}

// NewLayered validates the table.
func NewLayered(depths []float64, props []Material) (*Layered, error) {
	if len(depths) == 0 || len(depths) != len(props) {
		return nil, fmt.Errorf("cvm: need equal non-empty depths/props, got %d/%d", len(depths), len(props))
	}
	if depths[0] != 0 {
		return nil, fmt.Errorf("cvm: first layer must start at depth 0, got %g", depths[0])
	}
	for i := 1; i < len(depths); i++ {
		if depths[i] <= depths[i-1] {
			return nil, fmt.Errorf("cvm: depths not ascending at %d", i)
		}
	}
	return &Layered{Depths: depths, Props: props}, nil
}

// HardRock returns a generic four-layer hard-rock profile.
func HardRock() *Layered {
	l, err := NewLayered(
		[]float64{0, 1000, 5000, 16000},
		[]Material{
			{Vp: 3200, Vs: 1800, Rho: 2300},
			{Vp: 4800, Vs: 2800, Rho: 2550},
			{Vp: 6000, Vs: 3460, Rho: 2700},
			{Vp: 6800, Vs: 3900, Rho: 2900},
		})
	if err != nil {
		panic(err)
	}
	return l
}

// Query implements Querier with linear interpolation between layer tops;
// properties are constant laterally.
func (l *Layered) Query(_, _ float64, z float64) Material {
	if z <= l.Depths[0] {
		return l.Props[0]
	}
	last := len(l.Depths) - 1
	if z >= l.Depths[last] {
		return l.Props[last]
	}
	i := 0
	for i < last && l.Depths[i+1] <= z {
		i++
	}
	t := (z - l.Depths[i]) / (l.Depths[i+1] - l.Depths[i])
	a, b := l.Props[i], l.Props[i+1]
	return Material{
		Vp:  a.Vp + t*(b.Vp-a.Vp),
		Vs:  a.Vs + t*(b.Vs-a.Vs),
		Rho: a.Rho + t*(b.Rho-a.Rho),
	}
}

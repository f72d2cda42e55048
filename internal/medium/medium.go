// Package medium holds the discretized material model for one rank's
// subgrid: density and Lamé parameters at grid nodes, plus the staggered
// coefficients the velocity–stress scheme needs. Following the paper's
// single-CPU optimization (§IV.B), the staggered averages — reciprocal
// densities and harmonic means of mu — are precomputed once, so the hot
// loops divide not at all.
package medium

import (
	"fmt"
	"math"

	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/grid"
)

// Medium is the material state for one subgrid, including ghost cells so
// staggered averages near subgrid edges need no communication (ghosts are
// filled directly from the velocity model, with clamping at the physical
// domain edge).
type Medium struct {
	Dims grid.Dims
	H    float64 // grid spacing, m

	// Node-centered properties.
	Rho *grid.Field3 // density
	Lam *grid.Field3 // Lamé lambda
	Mu  *grid.Field3 // Lamé mu

	// Precomputed staggered coefficients.
	BX, BY, BZ       *grid.Field3 // 1/rho averaged at vx, vy, vz points
	MuXY, MuXZ, MuYZ *grid.Field3 // harmonic-mean mu at shear-stress points
	Lam2Mu           *grid.Field3 // lambda + 2*mu at normal-stress points

	// Quality factors for anelastic attenuation.
	QP, QS *grid.Field3

	// Extremes over the interior, for stability and dispersion checks.
	MinVs, MaxVp float64

	// Unphysical: some node, ghosts included, has a material that is not
	// finite or has Vp <= 0, Vs < 0 or density <= 0. A solver must refuse it.
	Unphysical bool
}

// FromCVM extracts the material model for subgrid s of d from q at grid
// spacing h (meters). Node (i,j,k) samples the model at global position
// ((OffX+i)·h, (OffY+j)·h, (OffZ+k)·h) with z measured as depth, a padded
// x-row per cvm.QueryRow call.
func FromCVM(q cvm.Querier, d decomp.Decomp, s decomp.Sub, h float64) *Medium {
	m := alloc(s.Local, h)
	g := grid.Ghost
	xs, mats := make([]float64, s.Local.NX+2*g), make([]cvm.Material, s.Local.NX+2*g)
	for i := range xs {
		xs[i] = float64(s.OffX+i-g) * h
	}
	for k := -g; k < s.Local.NZ+g; k++ {
		z := float64(s.OffZ+k) * h
		for j := -g; j < s.Local.NY+g; j++ {
			cvm.QueryRow(q, float64(s.OffY+j)*h, z, xs, mats)
			m.writeRow(j, k, mats)
		}
	}
	m.finalize()
	return m
}

// FromArrays builds a Medium from explicit per-node property arrays, which
// is how the partitioned-mesh reader hands sub-meshes to the solver. The
// arrays must cover the padded (ghost-inclusive) extent in x-fastest
// order, matching grid.Field3 layout. As in FromCVM, MinVs and MaxVp fold
// the interior nodes only, while any node, ghosts included, can set
// Unphysical.
func FromArrays(dims grid.Dims, h float64, vp, vs, rho []float32) (*Medium, error) {
	m := alloc(dims, h)
	if len(vp) != len(m.Rho.Data()) || len(vs) != len(vp) || len(rho) != len(vp) {
		return nil, fmt.Errorf("medium: array length %d, want padded %d", len(vp), len(m.Rho.Data()))
	}
	g := grid.Ghost
	mats := make([]cvm.Material, dims.NX+2*g)
	for k := -g; k < dims.NZ+g; k++ {
		for j := -g; j < dims.NY+g; j++ {
			n0 := m.Rho.Idx(-g, j, k)
			for i := range mats {
				mats[i] = cvm.Material{Vp: float64(vp[n0+i]), Vs: float64(vs[n0+i]), Rho: float64(rho[n0+i])}
			}
			m.writeRow(j, k, mats)
		}
	}
	m.finalize()
	return m, nil
}

func alloc(d grid.Dims, h float64) *Medium {
	f := grid.LaneFields(d, grid.Ghost, grid.LaneMedium, 12)
	return &Medium{
		Dims: d, H: h,
		Rho: f(), Lam: f(), Mu: f(),
		BX: f(), BY: f(), BZ: f(),
		MuXY: f(), MuXZ: f(), MuYZ: f(),
		Lam2Mu: f(),
		QP:     f(), QS: f(),
		MinVs: math.Inf(1),
	}
}

// convert maps (Vp, Vs, rho) to (rho, lambda, mu).
func convert(m cvm.Material) (rho, lam, mu float64) {
	rho = m.Rho
	mu = rho * m.Vs * m.Vs
	lam = rho*m.Vp*m.Vp - 2*mu
	return
}

// cfl4 is the stability constant of the 4th-order staggered-grid scheme:
// dt <= cfl4 * h / (sqrt(3) * Vpmax), with sum |coeff| = 9/8 + 1/24 = 7/6.
const cfl4 = 6.0 / 7.0

// StableDt returns the largest stable time step for this medium at safety
// factor sf (use ~0.9 for production, 0.5 for tests).
func (m *Medium) StableDt(sf float64) float64 {
	return sf * cfl4 * m.H / (math.Sqrt(3) * m.MaxVp)
}

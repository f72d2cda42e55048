// Package medium holds the discretized material model for one rank's
// subgrid: density and Lamé parameters at grid nodes, plus the staggered
// averages the velocity–stress scheme needs. Following the paper's
// single-CPU optimization (§IV.B), reciprocals of the Lamé arrays are
// stored so the hot loops harmonic-average without dividing per operand,
// and fully precomputed staggered coefficient arrays are available for the
// fastest kernel variant.
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

	// Reciprocals (the §IV.B storage optimization).
	LamI *grid.Field3 // 1/lambda
	MuI  *grid.Field3 // 1/mu

	// Precomputed staggered coefficients.
	BX, BY, BZ       *grid.Field3 // 1/rho averaged at vx, vy, vz points
	MuXY, MuXZ, MuYZ *grid.Field3 // harmonic-mean mu at shear-stress points
	Lam2Mu           *grid.Field3 // lambda + 2*mu at normal-stress points

	// Quality factors for anelastic attenuation.
	QP, QS *grid.Field3

	// Extremes over the interior, for stability and dispersion checks.
	MinVs, MaxVp, MinRho float64
}

// FromCVM extracts the material model for subgrid s of d from q at grid
// spacing h (meters). Node (i,j,k) samples the model at global position
// ((OffX+i)·h, (OffY+j)·h, (OffZ+k)·h) with z measured as depth.
func FromCVM(q cvm.Querier, d decomp.Decomp, s decomp.Sub, h float64) *Medium {
	m := alloc(s.Local, h)
	g := grid.Ghost
	minVs, maxVp, minRho := math.Inf(1), 0.0, math.Inf(1)
	for k := -g; k < s.Local.NZ+g; k++ {
		for j := -g; j < s.Local.NY+g; j++ {
			for i := -g; i < s.Local.NX+g; i++ {
				x := float64(s.OffX+i) * h
				y := float64(s.OffY+j) * h
				z := float64(s.OffZ+k) * h
				mat := q.Query(x, y, z)
				rho, lam, mu := convert(mat)
				m.Rho.Set(i, j, k, float32(rho))
				m.Lam.Set(i, j, k, float32(lam))
				m.Mu.Set(i, j, k, float32(mu))
				qp, qs := mat.Quality()
				m.QP.Set(i, j, k, float32(qp))
				m.QS.Set(i, j, k, float32(qs))
				if interior(i, j, k, s.Local) {
					minVs = math.Min(minVs, mat.Vs)
					maxVp = math.Max(maxVp, mat.Vp)
					minRho = math.Min(minRho, mat.Rho)
				}
			}
		}
	}
	m.MinVs, m.MaxVp, m.MinRho = minVs, maxVp, minRho
	m.finalize()
	return m
}

// FromArrays builds a Medium from explicit per-node property arrays, which
// is how the partitioned-mesh reader hands sub-meshes to the solver. The
// arrays must cover the padded (ghost-inclusive) extent in x-fastest
// order, matching grid.Field3 layout.
func FromArrays(dims grid.Dims, h float64, vp, vs, rho []float32) (*Medium, error) {
	m := alloc(dims, h)
	if len(vp) != len(m.Rho.Data()) || len(vs) != len(vp) || len(rho) != len(vp) {
		return nil, fmt.Errorf("medium: array length %d, want padded %d", len(vp), len(m.Rho.Data()))
	}
	minVs, maxVp, minRho := math.Inf(1), 0.0, math.Inf(1)
	for n := range vp {
		mat := cvm.Material{Vp: float64(vp[n]), Vs: float64(vs[n]), Rho: float64(rho[n])}
		r, lam, mu := convert(mat)
		m.Rho.Data()[n] = float32(r)
		m.Lam.Data()[n] = float32(lam)
		m.Mu.Data()[n] = float32(mu)
		qp, qs := mat.Quality()
		m.QP.Data()[n] = float32(qp)
		m.QS.Data()[n] = float32(qs)
		minVs = math.Min(minVs, mat.Vs)
		maxVp = math.Max(maxVp, mat.Vp)
		minRho = math.Min(minRho, mat.Rho)
	}
	m.MinVs, m.MaxVp, m.MinRho = minVs, maxVp, minRho
	m.finalize()
	return m, nil
}

func alloc(d grid.Dims, h float64) *Medium {
	f := grid.LaneFields(d, grid.Ghost, grid.LaneMedium, 14)
	return &Medium{
		Dims: d, H: h,
		Rho: f(), Lam: f(), Mu: f(),
		LamI: f(), MuI: f(),
		BX: f(), BY: f(), BZ: f(),
		MuXY: f(), MuXZ: f(), MuYZ: f(),
		Lam2Mu: f(),
		QP:     f(), QS: f(),
	}
}

func interior(i, j, k int, d grid.Dims) bool {
	return i >= 0 && i < d.NX && j >= 0 && j < d.NY && k >= 0 && k < d.NZ
}

// convert maps (Vp, Vs, rho) to (rho, lambda, mu).
func convert(m cvm.Material) (rho, lam, mu float64) {
	rho = m.Rho
	mu = rho * m.Vs * m.Vs
	lam = rho*m.Vp*m.Vp - 2*mu
	return
}

// SetUniformQ overwrites the quality-factor fields with uniform values,
// for controlled attenuation experiments. Non-positive values disable the
// corresponding loss mechanism.
func (m *Medium) SetUniformQ(qp, qs float64) {
	m.QP.Fill(float32(qp))
	m.QS.Fill(float32(qs))
}

// cfl4 is the stability constant of the 4th-order staggered-grid scheme:
// dt <= cfl4 * h / (sqrt(3) * Vpmax), with sum |coeff| = 9/8 + 1/24 = 7/6.
const cfl4 = 6.0 / 7.0

// StableDt returns the largest stable time step for this medium at safety
// factor sf (use ~0.9 for production, 0.5 for tests).
func (m *Medium) StableDt(sf float64) float64 {
	return StableDtFor(m.MaxVp, m.H, sf)
}

// StableDtFor is the per-cell form of StableDt: the largest stable time
// step for a single P-wave speed at grid spacing h and safety factor sf.
// The LTS planner rates grid planes with it before any medium is
// extracted; because StableDt delegates here, planner and solver agree
// bit-for-bit on the bound.
func StableDtFor(vp, h, sf float64) float64 {
	return sf * cfl4 * h / (math.Sqrt(3) * vp)
}

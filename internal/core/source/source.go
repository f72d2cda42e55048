// Package source provides kinematic earthquake sources for the wave
// propagation solver (§III.D): moment-rate time histories defined on
// sub-fault points, inserted into the staggered grid as stress increments,
// plus source-time functions, the Haskell-type kinematic rupture generator
// standing in for dSrcG, and the temporal-interpolation/low-pass transfer
// used to turn dynamic-rupture output into a kinematic source (the M8
// two-step method, §VII.A).
package source

import (
	"fmt"
	"math"

	"repro/internal/core/fd"
	"repro/internal/decomp"
)

// STF is a source-time function: moment rate (1/s) normalized so its time
// integral is 1; scale by M0 for physical moment rate.
type STF func(t float64) float64

// GaussianPulse returns a unit-area Gaussian moment-rate pulse centred at
// t0 with width sigma.
func GaussianPulse(t0, sigma float64) STF {
	a := 1 / (sigma * math.Sqrt(2*math.Pi))
	return func(t float64) float64 {
		d := (t - t0) / sigma
		return a * math.Exp(-d*d/2)
	}
}

// Triangle returns a unit-area isoceles triangle over [t0, t0+dur] — the
// classic kinematic rise function.
func Triangle(t0, dur float64) STF {
	return func(t float64) float64 {
		s := (t - t0) / dur
		switch {
		case s <= 0 || s >= 1:
			return 0
		case s < 0.5:
			return 4 * s / dur
		default:
			return 4 * (1 - s) / dur
		}
	}
}

// MomentTensor holds the six independent components in the canonical
// (xx, yy, zz, xy, xz, yz) order, unit-normalized (scaled by M0 at use).
type MomentTensor [6]float64

// StrikeSlipXY is the double couple of a vertical strike-slip fault in the
// x–z plane (slip along x, fault normal y) — the M8 geometry.
var StrikeSlipXY = MomentTensor{0, 0, 0, 1, 0, 0}

// Explosion is an isotropic source.
var Explosion = MomentTensor{1, 1, 1, 0, 0, 0}

// PointSource is an analytic moment-rate point source at a global grid
// node.
type PointSource struct {
	GI, GJ, GK int // global grid indices
	M0         float64
	Tensor     MomentTensor
	STF        STF
}

// SampledSource is a file/transfer-friendly moment-rate history on one
// sub-fault: six tensor-component rates (N*m/s) sampled at interval Dt —
// the representation dSrcG writes and PetaSrcP distributes.
type SampledSource struct {
	GI, GJ, GK int
	Dt         float64
	Rate       [][6]float32
}

// Sample converts a PointSource to a SampledSource with nt samples at dt.
func (p PointSource) Sample(dt float64, nt int) SampledSource {
	out := SampledSource{GI: p.GI, GJ: p.GJ, GK: p.GK, Dt: dt, Rate: make([][6]float32, nt)}
	for n := 0; n < nt; n++ {
		r := p.M0 * p.STF(float64(n)*dt)
		for c := 0; c < 6; c++ {
			out.Rate[n][c] = float32(r * p.Tensor[c])
		}
	}
	return out
}

// RateAt returns the linearly interpolated moment-rate tensor at time t
// (zero outside the sampled window).
func (s *SampledSource) RateAt(t float64) [6]float64 {
	var out [6]float64
	if t < 0 || len(s.Rate) == 0 {
		return out
	}
	x := t / s.Dt
	i := int(x)
	if i >= len(s.Rate)-1 {
		if i == len(s.Rate)-1 && x == float64(i) {
			for c := 0; c < 6; c++ {
				out[c] = float64(s.Rate[i][c])
			}
		}
		return out
	}
	f := x - float64(i)
	for c := 0; c < 6; c++ {
		out[c] = float64(s.Rate[i][c])*(1-f) + float64(s.Rate[i+1][c])*f
	}
	return out
}

// Moment returns the total scalar moment of the history: the integral of
// the tensor rate, reduced to a scalar via the double-couple norm
// sqrt(sum Mij^2 / 2) (counting off-diagonals twice).
func (s *SampledSource) Moment() float64 {
	var acc [6]float64
	for n := range s.Rate {
		w := 1.0
		if n == 0 || n == len(s.Rate)-1 {
			w = 0.5
		}
		for c := 0; c < 6; c++ {
			acc[c] += w * float64(s.Rate[n][c]) * s.Dt
		}
	}
	sum := acc[0]*acc[0] + acc[1]*acc[1] + acc[2]*acc[2] +
		2*(acc[3]*acc[3]+acc[4]*acc[4]+acc[5]*acc[5])
	return math.Sqrt(sum / 2)
}

// Set is a collection of sampled sources owned by one rank, with local
// indices resolved.
type Set struct {
	local []localSource
	h3    float64 // cell volume
}

type localSource struct {
	li, lj, lk int
	src        *SampledSource
}

// Localize filters the global sources to those inside sub and resolves
// their local indices. h is the grid spacing.
func Localize(all []SampledSource, sub decomp.Sub, h float64) *Set {
	st := &Set{h3: h * h * h}
	for i := range all {
		s := &all[i]
		if li, lj, lk, ok := sub.Contains(s.GI, s.GJ, s.GK); ok {
			st.local = append(st.local, localSource{li, lj, lk, s})
		}
	}
	return st
}

// Count returns the number of locally owned sub-faults.
func (st *Set) Count() int { return len(st.local) }

// Inject adds the moment-rate contributions for the step ending at time t
// into the stress field: sigma_ij -= dt * Mdot_ij(t) / V_cell, the
// standard staggered-grid moment insertion.
func (st *Set) Inject(s *fd.State, dt, t float64) {
	st.InjectRegion(s, dt, t, fd.Box{}, false)
}

// InjectRegion injects only the sources whose cell lies inside box (when
// inside is true) or outside it (when inside is false, with the zero box
// meaning "all sources"). The overlap communication schedule uses this to
// keep the per-cell operation order identical to the non-overlap models.
// It reports the hull of the nodes it fed a nonzero rate, in local indices
// (empty when every sampled rate was zero): the cells this call may have
// made nonzero, which is how the solver's active box learns that a source
// has gone live.
func (st *Set) InjectRegion(s *fd.State, dt, t float64, box fd.Box, inside bool) (fed fd.Box) {
	for _, ls := range st.local {
		in := ls.li >= box.I0 && ls.li < box.I1 &&
			ls.lj >= box.J0 && ls.lj < box.J1 &&
			ls.lk >= box.K0 && ls.lk < box.K1
		if in != inside {
			continue
		}
		r := ls.src.RateAt(t)
		scale := dt / st.h3
		i, j, k := ls.li, ls.lj, ls.lk
		s.XX.Add(i, j, k, float32(-r[0]*scale))
		s.YY.Add(i, j, k, float32(-r[1]*scale))
		s.ZZ.Add(i, j, k, float32(-r[2]*scale))
		s.XY.Add(i, j, k, float32(-r[3]*scale))
		s.XZ.Add(i, j, k, float32(-r[4]*scale))
		s.YZ.Add(i, j, k, float32(-r[5]*scale))
		if r != ([6]float64{}) {
			fed = fed.Hull(fd.Box{I0: i, I1: i + 1, J0: j, J1: j + 1, K0: k, K1: k + 1})
		}
	}
	return fed
}

// Mw2M0 converts moment magnitude to seismic moment (N*m).
func Mw2M0(mw float64) float64 { return math.Pow(10, 1.5*mw+9.05) }

// M02Mw converts seismic moment (N*m) to moment magnitude.
func M02Mw(m0 float64) float64 { return (math.Log10(m0) - 9.05) / 1.5 }

// HaskellSpec describes a Haskell-type kinematic rupture on a vertical
// planar fault at grid row GJ, spanning [I0,I1) along strike and [K0,K1)
// in depth — the dSrcG scenario generator.
type HaskellSpec struct {
	GJ             int // fault plane y index
	I0, I1, K0, K1 int // extent, global indices
	HypoI, HypoK   int // hypocenter
	H              float64
	Mw             float64
	Vr             float64 // rupture speed, m/s
	RiseTime       float64
	Mu             float64 // rigidity for moment bookkeeping
	Dt             float64
	NT             int
	TaperCells     int // cosine slip taper width at fault edges
}

// Validate reports configuration errors.
func (sp HaskellSpec) Validate() error {
	if sp.I1 <= sp.I0 || sp.K1 <= sp.K0 {
		return fmt.Errorf("source: empty fault extent")
	}
	if sp.HypoI < sp.I0 || sp.HypoI >= sp.I1 || sp.HypoK < sp.K0 || sp.HypoK >= sp.K1 {
		return fmt.Errorf("source: hypocenter outside fault")
	}
	if sp.Vr <= 0 || sp.RiseTime <= 0 || sp.Dt <= 0 || sp.NT <= 0 {
		return fmt.Errorf("source: non-positive kinematic parameters")
	}
	return nil
}

// Generate builds the sub-fault moment-rate histories: rupture initiates
// at the hypocenter and spreads circularly at Vr; each sub-fault releases
// its moment with a triangle STF over RiseTime; slip is cosine-tapered at
// the fault edges and scaled so the total moment matches Mw.
func (sp HaskellSpec) Generate() ([]SampledSource, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	nx := sp.I1 - sp.I0
	nz := sp.K1 - sp.K0
	weights := make([]float64, nx*nz)
	var wsum float64
	for k := 0; k < nz; k++ {
		for i := 0; i < nx; i++ {
			w := edgeTaper(i, nx, sp.TaperCells) * edgeTaper(k, nz, sp.TaperCells)
			weights[k*nx+i] = w
			wsum += w
		}
	}
	m0 := Mw2M0(sp.Mw)
	out := make([]SampledSource, 0, nx*nz)
	for k := 0; k < nz; k++ {
		for i := 0; i < nx; i++ {
			w := weights[k*nx+i]
			if w == 0 {
				continue
			}
			di := float64(i + sp.I0 - sp.HypoI)
			dk := float64(k + sp.K0 - sp.HypoK)
			dist := math.Hypot(di, dk) * sp.H
			tRup := dist / sp.Vr
			ps := PointSource{
				GI: i + sp.I0, GJ: sp.GJ, GK: k + sp.K0,
				M0:     m0 * w / wsum,
				Tensor: StrikeSlipXY,
				STF:    Triangle(tRup, sp.RiseTime),
			}
			out = append(out, ps.Sample(sp.Dt, sp.NT))
		}
	}
	return out, nil
}

// edgeTaper is a cosine taper from 0 at the edge to 1 at depth `width`.
func edgeTaper(i, n, width int) float64 {
	if width <= 0 {
		return 1
	}
	d := i
	if n-1-i < d {
		d = n - 1 - i
	}
	if d >= width {
		return 1
	}
	return 0.5 * (1 - math.Cos(math.Pi*float64(d+1)/float64(width+1)))
}

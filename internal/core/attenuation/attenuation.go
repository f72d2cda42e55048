// Package attenuation implements the coarse-grained memory-variable
// scheme of Day (1998) and Day & Bradley (2001) used by AWP-ODC to model
// frequency-independent anelastic losses (constant Q) during wave
// propagation (§II.A).
//
// The method approximates the constant-Q relaxation spectrum by NRelax
// exponential mechanisms with relaxation times log-spaced over the modeled
// band. Instead of storing all mechanisms at every grid point (8x memory),
// the mechanisms are distributed over the points of 2x2x2 coarse-graining
// cells: each point carries exactly one memory variable per stress
// component, and for wavelengths long against the cell the ensemble
// behaves like the full set — "without sacrificing computational or
// memory efficiency".
//
// Formulation: the anelastic stress is sigma = M_R*eps + sum_m zeta_m with
//
//	tau_m * dzeta_m/dt + zeta_m = deltaM * tau_m * deps/dt
//
// where M_R is the (relaxed) modulus carried by the elastic kernel. For a
// harmonic strain this yields the complex modulus
//
//	M(w) = M_R + deltaM * sum_m (i*w*tau_m)/(1 + i*w*tau_m)
//
// whose loss 1/Q(w) ~ (deltaM/M_u) * sum_m s(w*tau_m), s(x) = x/(1+x^2).
// With log-spaced tau the sum is nearly flat over the band, so a single
// normalization at the band center gives approximately constant Q. The
// per-point modulus deficit is deltaM = (M/Q) * 8/sum_m s(w0*tau_m), the
// factor 8 compensating for each point carrying only one of the eight
// mechanisms.
package attenuation

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/medium"
)

// NRelax is the number of relaxation mechanisms; the paper uses eight,
// distributed over the 8 points of a 2x2x2 coarse-graining cell.
const NRelax = 8

// Band is the frequency band over which Q is held approximately constant.
type Band struct {
	FMin, FMax float64 // Hz
}

// DefaultBand covers the 0.02–2 Hz band of the M8 simulation.
var DefaultBand = Band{FMin: 0.02, FMax: 2.0}

// RelaxationTimes returns NRelax relaxation times log-spaced across the
// band, longest first.
func (b Band) RelaxationTimes() [NRelax]float64 {
	var taus [NRelax]float64
	if b.FMin <= 0 || b.FMax <= b.FMin {
		panic(fmt.Sprintf("attenuation: invalid band %+v", b))
	}
	lmin := math.Log(1 / (2 * math.Pi * b.FMax))
	lmax := math.Log(1 / (2 * math.Pi * b.FMin))
	for m := 0; m < NRelax; m++ {
		f := float64(m) / float64(NRelax-1)
		taus[m] = math.Exp(lmax + f*(lmin-lmax))
	}
	return taus
}

// lossShape is s(x) = x/(1+x^2), the loss spectrum of one mechanism.
func lossShape(x float64) float64 { return x / (1 + x*x) }

// CenterOmega returns the geometric-center angular frequency of the band.
func (b Band) CenterOmega() float64 {
	return 2 * math.Pi * math.Sqrt(b.FMin*b.FMax)
}

// ensembleLoss returns sum_m s(w*tau_m) for the band's spectrum.
func ensembleLoss(taus [NRelax]float64, omega float64) float64 {
	var s float64
	for _, tau := range taus {
		s += lossShape(omega * tau)
	}
	return s
}

// Model holds the per-rank attenuation state: one memory variable per
// stress component per grid point, with the mechanism index determined by
// the point's position within its 2x2x2 coarse-graining cell.
type Model struct {
	Dims grid.Dims
	Band Band
	Taus [NRelax]float64

	// Per-mechanism recursion coefficients for the current dt:
	// zeta' = am*zeta + cm*deltaM*deps.
	am, cm [NRelax]float64
	dt     float64

	// walk[p] is the 8-lane walker's coefficient table (fusedStressTile)
	// for a tile whose first cell has global parity p = x | y<<1 | z<<2.
	walk [8][2][4][8]float32

	// Origin is the global index of the local (0,0,0) cell; the
	// coarse-grained mechanism assignment uses global parity so that a
	// decomposed run matches a single-rank run exactly.
	Origin [3]int

	// Memory variables, one per stress component.
	ZXX, ZYY, ZZZ *grid.Field3
	ZXY, ZXZ, ZYZ *grid.Field3

	// Per-point coarse-grain-normalized modulus deficits.
	DLam, DMu *grid.Field3
}

// New builds the attenuation model for medium m over band, discretized at
// time step dt (Apply panics if called with a different dt).
func New(m *medium.Medium, band Band, dt float64) *Model {
	nf := grid.LaneFields(m.Dims, grid.Ghost, grid.LaneAttenuation, 8)
	a := &Model{
		Dims: m.Dims,
		Band: band,
		Taus: band.RelaxationTimes(),
		dt:   dt,
		ZXX:  nf(), ZYY: nf(), ZZZ: nf(),
		ZXY: nf(), ZXZ: nf(), ZYZ: nf(),
		DLam: nf(), DMu: nf(),
	}
	for mm := 0; mm < NRelax; mm++ {
		tau := a.Taus[mm]
		a.am[mm] = (2*tau - dt) / (2*tau + dt)
		a.cm[mm] = 2 * tau / (2*tau + dt)
	}
	for p := range a.walk {
		for t := range a.walk[p][0] {
			for l := range a.walk[p][0][t] {
				// Lane l of a chunk is x parity p+l, row t has j parity
				// p>>1 + t&1 and k parity p>>2 + t>>1.
				mm := ((p>>2)+(t>>1))&1<<2 | ((p>>1)+(t&1))&1<<1 | (p+l)&1
				a.walk[p][0][t][l], a.walk[p][1][t][l] = float32(a.am[mm]), float32(a.cm[mm])
			}
		}
	}
	// Coarse-grain normalization: each point carries one mechanism, so its
	// deficit is 8x the full-ensemble per-mechanism deficit, normalized to
	// the band-center loss.
	a.deficits(m, float64(NRelax)/ensembleLoss(a.Taus, band.CenterOmega()))
	return a
}

// Sections names the six padded memory-variable arrays as restart sections.
func (a *Model) Sections() []grid.Section {
	return []grid.Section{{Name: "zxx", F32: a.ZXX.Data()}, {Name: "zyy", F32: a.ZYY.Data()},
		{Name: "zzz", F32: a.ZZZ.Data()}, {Name: "zxy", F32: a.ZXY.Data()},
		{Name: "zxz", F32: a.ZXZ.Data()}, {Name: "zyz", F32: a.ZYZ.Data()}}
}

// FlopsPerCell is the approximate flop count of the attenuation pass per
// cell per step, for the performance model.
const FlopsPerCell = 90

// QPredicted returns the effective quality factor the relaxation ensemble
// produces at angular frequency omega for a target Q — the verification
// quantity of Day (1998). A perfect constant-Q model would return targetQ
// at every frequency in the band.
func (a *Model) QPredicted(omega, targetQ float64) float64 {
	if targetQ <= 0 {
		return math.Inf(1)
	}
	loss := ensembleLoss(a.Taus, omega) / ensembleLoss(a.Taus, a.Band.CenterOmega())
	return targetQ / loss
}

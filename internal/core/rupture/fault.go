// Package rupture implements the staggered-grid split-node (SGSN)
// spontaneous dynamic rupture solver of AWP-ODC (§II.C, Dalguer & Day
// 2007): a vertical planar fault embedded in the 3D velocity–stress grid,
// with split tangential velocity nodes on the fault plane, a
// traction-at-split-node force balance, and a slip-weakening friction law.
//
// Geometry: the fault occupies the plane y = J0*h (the plane containing
// the vx nodes at (i+1/2, J0, k)). Slip is along strike (x), the M8
// mechanism. The along-strike velocity at fault nodes is split into plus
// (y > fault) and minus sides; all other components remain single-valued,
// the partly-split approximation whose near-fault accuracy is 2nd order —
// matching the scheme's formal order reduction within two cells of the
// fault (Eq. 4).
//
// Discrete split-node dynamics, per fault node, with unit-area half masses
// rho*h/2:
//
//	dvx+/dt = a_c + (2/(rho*h)) * (sxy(j0+1/2) - T)
//	dvx-/dt = a_c + (2/(rho*h)) * (T - sxy(j0-1/2))
//
// where a_c collects the common in-plane force terms and T is the fault
// traction perturbation. Enforcing zero slip acceleration gives the locked
// trial traction
//
//	T_lock = (sxy+ + sxy-)/2 + dslip/dt * rho*h/(4*dt)
//
// The absolute traction tau0 + T is capped at the slip-weakening strength
// tau_s(slip) = c0 + mu(slip)*sigma_n; the excess drives sliding.
package rupture

import (
	"fmt"
	"math"

	"repro/internal/core/fd"
	"repro/internal/grid"
	"repro/internal/medium"
)

// Friction holds the slip-weakening parameters at one fault node.
type Friction struct {
	MuS, MuD float64 // static and dynamic friction coefficients
	Dc       float64 // slip-weakening distance, m
	Cohesion float64 // c0, Pa
}

// Mu returns the friction coefficient after slip s.
func (f Friction) Mu(s float64) float64 {
	if s >= f.Dc {
		return f.MuD
	}
	return f.MuS - (f.MuS-f.MuD)*s/f.Dc
}

// Config describes the fault embedded in a subgrid.
type Config struct {
	J0             int // fault plane y index (local)
	I0, I1, K0, K1 int // rupturable region; outside nodes are barriers

	// Per-node fields indexed [k-K0][i-I0].
	Tau0     [][]float64 // initial along-strike shear stress, Pa
	SigmaN   [][]float64 // compressive normal stress (positive), Pa
	Friction [][]Friction
}

// Validate checks the configuration against the subgrid dims.
func (c Config) Validate(d grid.Dims) error {
	if c.J0 < 2 || c.J0 > d.NY-3 {
		return fmt.Errorf("rupture: fault plane j0=%d too close to subgrid edge (ny=%d)", c.J0, d.NY)
	}
	if c.I0 < 0 || c.I1 > d.NX || c.K0 < 0 || c.K1 > d.NZ || c.I1 <= c.I0 || c.K1 <= c.K0 {
		return fmt.Errorf("rupture: fault region [%d,%d)x[%d,%d) outside subgrid %v",
			c.I0, c.I1, c.K0, c.K1, d)
	}
	nk, ni := c.K1-c.K0, c.I1-c.I0
	for _, f := range [][][]float64{c.Tau0, c.SigmaN} {
		if len(f) != nk {
			return fmt.Errorf("rupture: field rows %d, want %d", len(f), nk)
		}
		for _, row := range f {
			if len(row) != ni {
				return fmt.Errorf("rupture: field cols %d, want %d", len(row), ni)
			}
		}
	}
	if len(c.Friction) != nk || len(c.Friction[0]) != ni {
		return fmt.Errorf("rupture: friction field shape mismatch")
	}
	return nil
}

// Fault is the runtime state of the dynamic rupture.
type Fault struct {
	cfg Config
	h   float64

	ni, nk int
	// Split along-strike velocities at fault nodes [k][i].
	vxP, vxM []float64
	// Slip history.
	Slip     []float64 // cumulative slip, m
	SlipRate []float64 // current slip rate, m/s
	PeakRate []float64 // peak slip rate, m/s
	RupTime  []float64 // first time slip rate exceeded rupture threshold; -1 if unbroken
	Traction []float64 // current total shear traction tau0 + T, Pa

	now [1]float64 // the fault's clock, which stamps RupTime
}

// RuptureThreshold is the slip-rate threshold defining rupture time
// (standard SCEC benchmark convention: 1 mm/s).
const RuptureThreshold = 1e-3

// NewFault validates cfg and allocates the rupture state.
func NewFault(cfg Config, d grid.Dims, h float64) (*Fault, error) {
	if err := cfg.Validate(d); err != nil {
		return nil, err
	}
	ni, nk := cfg.I1-cfg.I0, cfg.K1-cfg.K0
	f := &Fault{
		cfg: cfg, h: h, ni: ni, nk: nk,
		vxP: make([]float64, ni*nk), vxM: make([]float64, ni*nk),
		Slip: make([]float64, ni*nk), SlipRate: make([]float64, ni*nk),
		PeakRate: make([]float64, ni*nk), RupTime: make([]float64, ni*nk),
		Traction: make([]float64, ni*nk),
	}
	for n := range f.RupTime {
		f.RupTime[n] = -1
	}
	for n := range f.Traction {
		k, i := n/ni, n%ni
		f.Traction[n] = cfg.Tau0[k][i]
	}
	return f, nil
}

// Sections names what a step of the fault reads and writes as restart
// sections: the split velocities, the slip history and the clock.
func (f *Fault) Sections() []grid.Section {
	return []grid.Section{{Name: "fault.vxp", F64: f.vxP}, {Name: "fault.vxm", F64: f.vxM},
		{Name: "fault.slip", F64: f.Slip}, {Name: "fault.sliprate", F64: f.SlipRate},
		{Name: "fault.peakrate", F64: f.PeakRate}, {Name: "fault.ruptime", F64: f.RupTime},
		{Name: "fault.traction", F64: f.Traction}, {Name: "fault.clock", F64: f.now[:]}}
}

// idx maps fault-local (i,k) (already offset by I0/K0) to flat index.
func (f *Fault) idx(i, k int) int { return (k-f.cfg.K0)*f.ni + (i - f.cfg.I0) }

// Tick advances the fault's clock by one step of dt: call it once per step,
// before that step's UpdateVelocity calls, which stamp rupture times with it.
func (f *Fault) Tick(dt float64) { f.now[0] += dt }

// UpdateVelocity replaces the solver's velocity update at the fault nodes in
// box b: call it after the bulk velocity kernel has swept b. It recomputes vx
// on the fault plane with split-node dynamics and friction, writing the
// average back into the global field (the value off-fault stencils see). A
// node reads only stresses and writes only its own vx and split state, so
// boxes that partition the plane store the bits of one call over the whole.
func (f *Fault) UpdateVelocity(s *fd.State, m *medium.Medium, dt float64, b fd.Box) {
	c := &f.cfg
	j0 := c.J0
	if j0 < b.J0 || j0 >= b.J1 {
		return
	}
	h := f.h

	for k := max(c.K0, b.K0); k < min(c.K1, b.K1); k++ {
		for i := max(c.I0, b.I0); i < min(c.I1, b.I1); i++ {
			n := f.idx(i, k)
			rho := float64(m.Rho.At(i, j0, k))

			// Common in-plane force terms (2nd-order central at the fault).
			axx := (float64(s.XX.At(i+1, j0, k)) - float64(s.XX.At(i, j0, k))) / h
			axz := (float64(s.XZ.At(i, j0, k)) - float64(s.XZ.At(i, j0, k-1))) / h
			ac := (axx + axz) / rho

			sxyP := float64(s.XY.At(i, j0, k))   // at (i+1/2, j0+1/2, k)
			sxyM := float64(s.XY.At(i, j0-1, k)) // at (i+1/2, j0-1/2, k)

			dv := f.vxP[n] - f.vxM[n] // current slip rate
			tLock := (sxyP+sxyM)/2 + dv*rho*h/(4*dt)

			fr := c.Friction[k-c.K0][i-c.I0]
			strength := fr.Cohesion + fr.Mu(f.Slip[n])*c.SigmaN[k-c.K0][i-c.I0]
			if strength < 0 {
				strength = 0
			}
			tau0 := c.Tau0[k-c.K0][i-c.I0]
			total := tau0 + tLock
			var T float64
			if math.Abs(total) <= strength {
				T = tLock // locked (or instantaneously arresting)
			} else {
				T = math.Copysign(strength, total) - tau0
			}
			f.Traction[n] = tau0 + T

			aP := ac + (2/(rho*h))*(sxyP-T)
			aM := ac + (2/(rho*h))*(T-sxyM)
			f.vxP[n] += dt * aP
			f.vxM[n] += dt * aM

			rate := f.vxP[n] - f.vxM[n]
			// The locked update zeroes slip acceleration, not slip rate;
			// friction cannot reverse slip, so clamp sign reversals.
			if rate*dv < 0 && math.Abs(total) <= strength {
				mid := (f.vxP[n] + f.vxM[n]) / 2
				f.vxP[n], f.vxM[n] = mid, mid
				rate = 0
			}
			f.SlipRate[n] = rate
			f.Slip[n] += math.Abs(rate) * dt
			if math.Abs(rate) > f.PeakRate[n] {
				f.PeakRate[n] = math.Abs(rate)
			}
			if f.RupTime[n] < 0 && math.Abs(rate) >= RuptureThreshold {
				f.RupTime[n] = f.now[0]
			}

			// Off-fault stencils read the average of the split values.
			s.VX.Set(i, j0, k, fd.Quiesce(float32((f.vxP[n]+f.vxM[n])/2)))
		}
	}
}

// CorrectStress corrects the shear stress adjacent to the fault on the cells
// of box b: call it after the bulk stress kernel has swept b, before
// attenuation. Each sxy row whose Dyf(vx) stencil touches the fault node must
// see the split value instead of the average the bulk kernel used (Eq. 4b/4c):
// rows j0 and j0+1 see vxP, rows j0-1 and j0-2 see vxM, and the correction
// adds dt*mu*(coefficient)*(split - avg). A cell reads only the split
// velocities and writes only itself, so boxes that partition the rows store
// the bits of one call over the whole.
func (f *Fault) CorrectStress(s *fd.State, m *medium.Medium, dt float64, b fd.Box) {
	c := &f.cfg
	dth := float32(dt / f.h)
	c1, c2 := float32(fd.C1), float32(fd.C2)
	coef := [4]float32{c2, c1, -c1, -c2} // rows j0-2 … j0+1

	for j := max(c.J0-2, b.J0); j < min(c.J0+2, b.J1); j++ {
		r := j - (c.J0 - 2)
		for k := max(c.K0, b.K0); k < min(c.K1, b.K1); k++ {
			for i := max(c.I0, b.I0); i < min(c.I1, b.I1); i++ {
				n := f.idx(i, k)
				avg := (f.vxP[n] + f.vxM[n]) / 2
				split := f.vxM[n]
				if r >= 2 {
					split = f.vxP[n]
				}
				s.XY.Add(i, j, k, dth*m.MuXY.At(i, j, k)*coef[r]*float32(split-avg))
			}
		}
	}
}

// MomentRate returns the instantaneous seismic moment rate
// sum(mu * sliprate * dA), N*m/s.
func (f *Fault) MomentRate(m *medium.Medium) float64 {
	var mr float64
	area := f.h * f.h
	for k := f.cfg.K0; k < f.cfg.K1; k++ {
		for i := f.cfg.I0; i < f.cfg.I1; i++ {
			n := f.idx(i, k)
			mr += float64(m.Mu.At(i, f.cfg.J0, k)) * math.Abs(f.SlipRate[n]) * area
		}
	}
	return mr
}

// Stats summarizes the rupture for Fig 19-style reporting.
type Stats struct {
	MaxSlip, MeanSlip   float64
	MaxPeakRate         float64
	RupturedFraction    float64
	MeanRuptureVelocity float64 // m/s, from rupture-time gradients
	SupershearFraction  float64 // fraction of ruptured nodes with vr > local Vs
}

// Summarize derives the summary from fault-window arrays indexed [k][i]
// over the whole fault: final slip, peak slip rate, rupture time rup
// (negative where the node never ruptured) and the local S-wave speed vs.
// h is the grid spacing; the rupture velocity is 1/|grad t_r| by central
// differences, so it needs the whole rupture-time field, not one rank's
// share.
func Summarize(slip, peak, rup, vs [][]float64, h float64) Stats {
	var st Stats
	nk := len(slip)
	if nk == 0 {
		return st
	}
	ni := len(slip[0])
	var sum float64
	nRup := 0
	for k := 0; k < nk; k++ {
		for i := 0; i < ni; i++ {
			if slip[k][i] > st.MaxSlip {
				st.MaxSlip = slip[k][i]
			}
			sum += slip[k][i]
			if peak[k][i] > st.MaxPeakRate {
				st.MaxPeakRate = peak[k][i]
			}
			if rup[k][i] >= 0 {
				nRup++
			}
		}
	}
	st.MeanSlip = sum / float64(nk*ni)
	st.RupturedFraction = float64(nRup) / float64(nk*ni)

	var vrSum float64
	var nvr, nss int
	for k := 1; k < nk-1; k++ {
		for i := 1; i < ni-1; i++ {
			if rup[k][i] < 0 || rup[k][i-1] < 0 || rup[k][i+1] < 0 ||
				rup[k-1][i] < 0 || rup[k+1][i] < 0 {
				continue
			}
			gx := (rup[k][i+1] - rup[k][i-1]) / (2 * h)
			gz := (rup[k+1][i] - rup[k-1][i]) / (2 * h)
			g := gx*gx + gz*gz
			if g < 1e-18 {
				continue
			}
			vr := 1 / math.Sqrt(g)
			vrSum += vr
			nvr++
			if vr > vs[k][i] {
				nss++
			}
		}
	}
	if nvr > 0 {
		st.MeanRuptureVelocity = vrSum / float64(nvr)
		st.SupershearFraction = float64(nss) / float64(nvr)
	}
	return st
}

// SlipRateHistoryRecorder captures per-node slip-rate time series for the
// dynamic-to-kinematic transfer (dSrcG output).
type SlipRateHistoryRecorder struct {
	Series [][]float32 // [node][sample]
	Fault  *Fault
}

// NewRecorder allocates a recorder of f's nodes.
func NewRecorder(f *Fault) *SlipRateHistoryRecorder {
	return &SlipRateHistoryRecorder{Fault: f, Series: make([][]float32, len(f.SlipRate))}
}

// Record appends the current slip rates.
func (r *SlipRateHistoryRecorder) Record() {
	for n, v := range r.Fault.SlipRate {
		r.Series[n] = append(r.Series[n], float32(math.Abs(v)))
	}
}

// Truncate keeps the first n samples of every node's series, so that a run
// rolled back before its later samples records them afresh.
func (r *SlipRateHistoryRecorder) Truncate(n int) {
	for i, s := range r.Series {
		r.Series[i] = s[:min(n, len(s))]
	}
}

// NodeGlobal returns the global (i, j, k) of flat node n given the
// fault-local layout.
func (r *SlipRateHistoryRecorder) NodeGlobal(n int) (i, j, k int) {
	c := &r.Fault.cfg
	return c.I0 + n%r.Fault.ni, c.J0, c.K0 + n/r.Fault.ni
}

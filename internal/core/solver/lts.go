package solver

import (
	"fmt"

	"repro/internal/core/fd"
	"repro/internal/cvm"
	"repro/internal/medium"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// LTSOptions configures multi-rate local time stepping: ranks whose local
// medium admits a larger stable step advance with dt·2^k, exchanging
// halos with faster neighbors through time-interpolated ghost sections.
// Work drops by the fraction of cells running above rate 1; accuracy at
// rate boundaries degrades to the linear-in-time interpolation error (and
// one velocity-ghost time level of lag on the coarse side), which the
// `-exp lts` benchmark quantifies against the global-dt reference.
type LTSOptions struct {
	// Enabled turns the multi-rate schedule on. Uniform stepping is the
	// same step program with every rate 1, so a run whose assigned rates
	// are all 1 is bit-identical to LTS off by construction.
	Enabled bool
	// MaxK caps the rate exponent: ranks step at dt·2^k with k <= MaxK.
	// 0 defaults to 2 (rates 1/2/4); valid explicit values are 1 and 2.
	MaxK int
	// MaxRateRatio caps the step-rate ratio between face neighbors (the
	// cluster grading constraint). 0 defaults to 2; valid explicit
	// values are 2 and 4.
	MaxRateRatio int
	// WorkBalance requests work-weighted cut placement: partition costs
	// count cells/rate instead of raw cells, shrinking base-rate
	// subdomains so the critical path reflects the LTS work reduction.
	// Run and ft.RunWorld fill PlaneRates via PlanLTS when it is unset.
	WorkBalance bool
	// PlaneRates, when non-nil, is consumed by Prepare to place
	// work-balanced cuts (usually filled by PlanLTS from the velocity
	// model). Nil axes keep the balanced block distribution.
	PlaneRates *PlaneRates
}

// PlaneRates carries per-axis per-plane step-rate estimates for the
// work-balanced decomposition: X[i] is the rate of the most restrictive
// cell in global x-plane i, and likewise for Y/Z.
type PlaneRates struct {
	X, Y, Z []int
}

// PlanLTS scans the velocity model once and fills Options.LTS.PlaneRates
// with per-plane rate estimates for the work-balanced decomposition. It
// is a no-op unless LTS with WorkBalance is enabled and the rates are not
// already present. Axes whose planes all share one rate are left nil so a
// uniform medium keeps the classic block layout (and hence rate-1-only
// runs stay bit-identical to the classic path).
func PlanLTS(q cvm.Querier, opt Options) (Options, error) {
	if !opt.LTS.Enabled || !opt.LTS.WorkBalance || opt.LTS.PlaneRates != nil {
		return opt, nil
	}
	if !opt.Global.Valid() {
		return opt, fmt.Errorf("solver: PlanLTS needs valid global dims, got %v", opt.Global)
	}
	// Run plans before it prepares; a NaN spacing would make every plane's
	// stable step NaN, which no rate bound compares above.
	if err := checkSpacing(opt.H); err != nil {
		return opt, err
	}
	cfl := opt.CFL
	if cfl == 0 {
		cfl = 0.5
	}
	maxK := opt.LTS.MaxK
	if maxK == 0 {
		maxK = 2
	}
	nx, ny, nz := opt.Global.NX, opt.Global.NY, opt.Global.NZ
	maxVpX := make([]float64, nx)
	maxVpY := make([]float64, ny)
	maxVpZ := make([]float64, nz)
	for k := 0; k < nz; k++ {
		z := float64(k) * opt.H
		for j := 0; j < ny; j++ {
			y := float64(j) * opt.H
			for i := 0; i < nx; i++ {
				vp := q.Query(float64(i)*opt.H, y, z).Vp
				if vp > maxVpX[i] {
					maxVpX[i] = vp
				}
				if vp > maxVpY[j] {
					maxVpY[j] = vp
				}
				if vp > maxVpZ[k] {
					maxVpZ[k] = vp
				}
			}
		}
	}
	globalMax := 0.0
	for _, vp := range maxVpX {
		if vp > globalMax {
			globalMax = vp
		}
	}
	if globalMax <= 0 {
		return opt, fmt.Errorf("solver: PlanLTS found no positive P-wave speed in the model")
	}
	baseDt := opt.Dt
	if baseDt <= 0 {
		baseDt = medium.StableDtFor(globalMax, opt.H, cfl)
	}
	rateOf := func(vps []float64) []int {
		rates := make([]int, len(vps))
		mixed := false
		for i, vp := range vps {
			rates[i] = ltsRateFor(medium.StableDtFor(vp, opt.H, cfl), baseDt, maxK, opt.Steps)
			if rates[i] != rates[0] {
				mixed = true
			}
		}
		if !mixed {
			return nil
		}
		return rates
	}
	opt.LTS.PlaneRates = &PlaneRates{X: rateOf(maxVpX), Y: rateOf(maxVpY), Z: rateOf(maxVpZ)}
	return opt, nil
}

// ltsRateFor computes the rate-2^k multiplier a subdomain with stable
// step localDt earns over the base step: the largest power of two <= 2^maxK
// that both fits under localDt/baseDt and divides the step count (cycles
// must tile the run exactly; an odd Steps degrades everything to rate 1).
func ltsRateFor(localDt, baseDt float64, maxK, steps int) int {
	rate := 1
	for k := 0; k < maxK; k++ {
		next := rate * 2
		if steps%next != 0 || localDt < baseDt*float64(next) {
			break
		}
		rate = next
	}
	return rate
}

// ltsGradeRates enforces the cluster grading constraint in place: no rank
// may step more than maxRatio times slower than a face neighbor. Rates
// only decrease (staying powers of two), so the fixpoint terminates; the
// deterministic sweep order makes every rank compute the identical vector.
func ltsGradeRates(rates []int, topo mpi.Cart, maxRatio int) {
	for changed := true; changed; {
		changed = false
		for r := range rates {
			for ax := 0; ax < 3; ax++ {
				for _, dir := range [2]int{-1, +1} {
					n := topo.Neighbor(r, ax, dir)
					if n < 0 {
						continue
					}
					if lim := rates[n] * maxRatio; rates[r] > lim {
						rates[r] = lim
						changed = true
					}
				}
			}
		}
	}
}

// ltsRank is one rank's view of the step schedule: the global rate vector
// and this rank's step multiplier. Every Stepper has one — with LTS off it
// is the all-ones vector, a cycle of length one. All cross-rate buffering
// lives on the fine side and is refilled at every window start, so the
// schedule needs no state that survives a cycle boundary — checkpoint
// rollback to a cycle boundary replays bit-identically.
type ltsRank struct {
	rates   []int // per-rank step-rate multipliers (identical on all ranks)
	rate    int   // this rank's multiplier
	maxRate int   // cycle length in base steps
	baseDt  float64
	localDt float64 // baseDt * rate
}

// ltsWindow buffers a coarser neighbor's phase message over a window of
// nbRate base steps: old holds the window-start time level (captured from
// the ghosts by schedule.post), fresh the window-end level (received once
// per window and kept until the next one replaces it), and ghost fills
// blend the two linearly in time.
type ltsWindow struct {
	old, fresh, blend []float32
	theta             float32 // blend factor of the next fill
}

// level installs a newly received window-end buffer, if any, and returns
// what finish should unpack: the window blended to theta when fill is
// set, nothing otherwise.
func (w *ltsWindow) level(received []float32, fill bool, tel *telemetry.Recorder) []float32 {
	if received != nil {
		mpi.PutBuffer(w.fresh)
		w.fresh = received
	}
	if !fill {
		return nil
	}
	if w.theta >= 1 {
		return w.fresh
	}
	sp := tel.Span(telemetry.Interp)
	fd.Lerp(w.blend, w.old, w.fresh, w.theta)
	sp.End()
	return w.blend
}

// newLTSRank assigns rates from the already-extracted media: every rank
// learns the full per-rank stable-dt vector through one allreduce and
// derives the identical graded rate vector. With LTS off every rate is 1
// and nothing is reduced: localDt is baseDt, the cycle is one step.
func newLTSRank(c *mpi.Comm, opt Options, rs *rankState, baseDt float64) *ltsRank {
	rates := make([]int, c.Size())
	for r := range rates {
		rates[r] = 1
	}
	if opt.LTS.Enabled {
		// Zero-filled vector with a Max reduction: stable steps are always
		// positive, so each lane's maximum is its rank's value, exactly (the
		// reduction carries float64 bit for bit).
		vec := make([]float64, c.Size())
		vec[c.Rank()] = rs.med.StableDt(opt.CFL)
		for r, d := range c.Allreduce(vec, mpi.Max) {
			rates[r] = ltsRateFor(d, baseDt, opt.LTS.MaxK, opt.Steps)
		}
		ltsGradeRates(rates, opt.Topo, opt.LTS.MaxRateRatio)
	}

	l := &ltsRank{rates: rates, rate: rates[c.Rank()], baseDt: baseDt}
	for _, r := range rates {
		l.maxRate = max(l.maxRate, r)
	}
	l.localDt = baseDt * float64(l.rate)
	return l
}

// bind annotates a phase schedule with each peer's rate and gives the
// messages from coarser peers their window buffers.
func (l *ltsRank) bind(s *schedule) {
	for i := range s.msgs {
		m := &s.msgs[i]
		m.nbRate = l.rates[m.peer]
		if m.nbRate > l.rate {
			m.win = &ltsWindow{old: make([]float32, m.total), blend: make([]float32, m.total)}
		}
	}
}

// arm sets up one phase of the halo exchange at global base-step index
// sub: the phase's schedule with each message armed by its peer's rate.
// Same-rate pairs send and receive every step — all there is when every
// rate is 1. Toward a finer peer this rank ships its post-kernel faces every
// local step (each opens one of the peer's windows) and absorbs the peer's
// window-end faces only at the end of its step (absorb). Toward a coarser
// peer it runs the window protocol: at window start keep the ghosts as the
// interpolation anchor and receive the window-end faces; on the window's
// last sub-step ship its own faces; every sub-step blend the ghosts to the
// time level the next kernel reads (velocity fills feed this sub-step's
// stress kernel, stress fills the next one's velocity kernel). post sends
// before finish waits, so the exchange cannot deadlock, and neither touches
// a cell an inner tile touches, so the overlap model's gap between them
// holds at any rate.
func (l *ltsRank) arm(s *schedule, sub int) {
	for i := range s.msgs {
		m := &s.msgs[i]
		switch {
		case m.nbRate == l.rate:
			m.act = actSend | actRecv
		case m.nbRate < l.rate:
			m.act = actSend
		default:
			pos := sub % m.nbRate
			m.act = actFill
			if pos == 0 {
				m.act |= actRecv
			}
			if pos+l.rate == m.nbRate {
				m.act |= actSend
			}
			m.win.theta = float32(pos+l.rate) / float32(m.nbRate)
		}
	}
}

// armAbsorb arms the receive-only exchange that ends a coarse rank's step:
// it takes the window-end faces every finer neighbor sent during the step
// and writes them into the ghosts, leaving them at this rank's new time
// level for the next step's kernels (the velocity ghosts it absorbs are
// one coarse step stale when the stress kernel reads them — the documented
// one-sided lag of the scheme). It reports whether any neighbor is finer.
func (l *ltsRank) armAbsorb(s *schedule) bool {
	finer := false
	for i := range s.msgs {
		m := &s.msgs[i]
		m.act = 0
		if m.nbRate < l.rate {
			m.act = actRecv
			finer = true
		}
	}
	return finer
}

// ltsFillReceivers linearly interpolates the seismogram samples a
// rate-2^k rank never computed (its states only exist every `rate` base
// steps) from the neighboring recorded samples, anchored at the zero
// initial state before the first record. Runs once per rank in Finish,
// before the gather.
func (rs *rankState) ltsFillReceivers() {
	for i := range rs.receivers {
		r := &rs.receivers[i]
		if r.sampled == nil {
			continue
		}
		last := -1 // virtual zero-valued sample before index 0
		for si := range r.series {
			if !r.sampled[si] {
				continue
			}
			var a [3]float32
			if last >= 0 {
				a = r.series[last]
			}
			b := r.series[si]
			for g := last + 1; g < si; g++ {
				t := float32(g-last) / float32(si-last)
				r.series[g] = [3]float32{
					a[0] + (b[0]-a[0])*t,
					a[1] + (b[1]-a[1])*t,
					a[2] + (b[2]-a[2])*t,
				}
			}
			last = si
		}
		if last >= 0 {
			for g := last + 1; g < len(r.series); g++ {
				r.series[g] = r.series[last]
			}
		}
	}
}

// Package farm is the CyberShake-style hazard-service ensemble farm: a
// long-running scenario service over the repo's solver stack. A supervised
// job queue runs rupture-scenario ensembles (magnitude / hypocenter /
// velocity-model perturbations) over a bounded persistent worker fleet
// with per-job deadlines, bounded-exponential-backoff retries and capped
// attempts; completed products land in a content-addressed, CRC64-verified
// result store; an HTTP/JSON front end serves PGV maps and hazard curves
// with admission control, load shedding and graceful degradation (cache or
// RBF-surrogate answers tagged degraded rather than errors). Robustness is
// the design headline: every fault class the chaos harness can inject —
// worker crash, hung job, corrupted artifact, PFS fault storm, in-world
// rank crash — degrades throughput, never correctness or availability.
package farm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core/solver"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/mpi"
)

// Scenario is one rupture-scenario ensemble member: the perturbation axes
// of the CyberShake-style study (magnitude, hypocenter position, velocity-
// model scale factor).
type Scenario struct {
	// Mw is the moment magnitude.
	Mw float64 `json:"mw"`
	// HypoX/HypoY/HypoZ place the hypocenter fractionally in the domain
	// interior (each in [0, 1], mapped away from the absorbing boundary).
	HypoX float64 `json:"hx"`
	HypoY float64 `json:"hy"`
	HypoZ float64 `json:"hz"`
	// VsScale multiplies the velocity model's Vp and Vs (the epistemic
	// velocity-model perturbation; 1 = unperturbed).
	VsScale float64 `json:"vs"`
}

// Key is the scenario's content address: parameters are quantized to 1e-6
// so a re-submitted scenario maps to the same artifact, then hashed.
func (s Scenario) Key() string {
	canon := fmt.Sprintf("mw=%.6f;hx=%.6f;hy=%.6f;hz=%.6f;vs=%.6f",
		s.Mw, s.HypoX, s.HypoY, s.HypoZ, s.VsScale)
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:8])
}

// The magnitudes a scenario may ask for: from a small felt event to the
// largest earthquake recorded (Mw 9.5, Chile 1960).
const minMw, maxMw = 3.0, 9.5

// Validate rejects a scenario no job can answer: a value that is not
// finite, a hypocentre fraction outside [0, 1], a velocity scale that is
// not positive, or a magnitude outside [minMw, maxMw].
func (s Scenario) Validate() error {
	for _, v := range []float64{s.Mw, s.HypoX, s.HypoY, s.HypoZ, s.VsScale} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("scenario %+v: every value must be finite", s)
		}
	}
	for _, v := range []float64{s.HypoX, s.HypoY, s.HypoZ} {
		if v < 0 || v > 1 {
			return fmt.Errorf("scenario %+v: hypocentre fractions must lie in [0, 1]", s)
		}
	}
	if s.VsScale <= 0 {
		return fmt.Errorf("scenario %+v: vs must be positive", s)
	}
	if s.Mw < minMw || s.Mw > maxMw {
		return fmt.Errorf("scenario %+v: mw must lie in [%g, %g]", s, minMw, maxMw)
	}
	return nil
}

// Class buckets scenarios for failure isolation: the circuit breaker trips
// per class, so a pathological magnitude band cannot take down serving of
// the others.
func (s Scenario) Class() string {
	switch {
	case s.Mw < 6.0:
		return "M<6"
	case s.Mw < 7.0:
		return "M6-7"
	default:
		return "M7+"
	}
}

// ScenarioRange bounds the ensemble's parameter box.
type ScenarioRange struct {
	Lo, Hi Scenario
}

// DefaultRange is the demonstration ensemble box: Mw 5.5–7.5, hypocenter
// anywhere in the central half of the domain, ±10% velocity perturbation.
func DefaultRange() ScenarioRange {
	return ScenarioRange{
		Lo: Scenario{Mw: 5.5, HypoX: 0.25, HypoY: 0.25, HypoZ: 0.3, VsScale: 0.9},
		Hi: Scenario{Mw: 7.5, HypoX: 0.75, HypoY: 0.75, HypoZ: 0.7, VsScale: 1.1},
	}
}

// LatinHypercube draws n scenarios by Latin-hypercube sampling over the
// range: each of the 5 axes is split into n strata and each stratum is
// hit exactly once, giving far better space coverage than n independent
// uniform draws (the VECMA UQ-ensemble sampling plan). n <= 0 draws
// nothing.
func LatinHypercube(n int, seed int64, r ScenarioRange) []Scenario {
	if n <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	const axes = 5
	// perm[a][i] is the stratum axis a uses for sample i.
	perm := make([][]int, axes)
	for a := range perm {
		perm[a] = rng.Perm(n)
	}
	lerp := func(lo, hi, u float64) float64 { return lo + (hi-lo)*u }
	out := make([]Scenario, n)
	for i := 0; i < n; i++ {
		u := make([]float64, axes)
		for a := 0; a < axes; a++ {
			u[a] = (float64(perm[a][i]) + rng.Float64()) / float64(n)
		}
		out[i] = Scenario{
			Mw:      lerp(r.Lo.Mw, r.Hi.Mw, u[0]),
			HypoX:   lerp(r.Lo.HypoX, r.Hi.HypoX, u[1]),
			HypoY:   lerp(r.Lo.HypoY, r.Hi.HypoY, u[2]),
			HypoZ:   lerp(r.Lo.HypoZ, r.Hi.HypoZ, u[3]),
			VsScale: lerp(r.Lo.VsScale, r.Hi.VsScale, u[4]),
		}
	}
	return out
}

// EnsembleSpec fixes the simulation configuration shared by every member:
// the grid and the run length; the base velocity model is the SoCal
// synthetic sized to the grid. Scenario parameters perturb around it.
// Every job is elastic (no attenuation), which keeps the ensemble cheap.
type EnsembleSpec struct {
	Dims  grid.Dims
	H     float64 // grid spacing, m
	Steps int
	// Ranks is the per-job world size (1 = single-rank solver.Run; >1
	// runs each job as a multi-rank in-process world).
	Ranks int
}

// DefaultSpec is the laptop-scale demonstration ensemble configuration.
func DefaultSpec() EnsembleSpec {
	return EnsembleSpec{
		Dims: grid.Dims{NX: 20, NY: 20, NZ: 14}, H: 100, Steps: 60, Ranks: 1,
	}
}

// Model returns the scenario's perturbed velocity model.
func (e EnsembleSpec) Model(sc Scenario) cvm.Querier {
	base := cvm.SoCal(float64(e.Dims.NX-1)*e.H, float64(e.Dims.NY-1)*e.H,
		float64(e.Dims.NZ-1)*e.H, 400)
	if sc.VsScale == 0 || sc.VsScale == 1 {
		return base
	}
	return scaledModel{base: base, s: sc.VsScale}
}

// scaledModel perturbs Vp and Vs by a common factor (density untouched, so
// impedance scales with the factor).
type scaledModel struct {
	base cvm.Querier
	s    float64
}

func (m scaledModel) Query(x, y, z float64) cvm.Material {
	mat := m.base.Query(x, y, z)
	mat.Vp *= m.s
	mat.Vs *= m.s
	return mat
}

// QueryRow implements cvm.RowQuerier: the base model's row, each Vp and Vs
// then scaled as Query scales them, so a job's medium is sampled a row per
// call (FuzzScaledQueryRow holds it to Query).
func (m scaledModel) QueryRow(y, z float64, xs []float64, out []cvm.Material) {
	cvm.QueryRow(m.base, y, z, xs, out)
	for i := range out[:len(xs)] {
		out[i].Vp *= m.s
		out[i].Vs *= m.s
	}
}

// hypoIndex maps a fractional coordinate to a grid index kept off the
// boundary cells.
func hypoIndex(frac float64, n int) int {
	i := int(math.Round(frac * float64(n-1)))
	if i < 2 {
		i = 2
	}
	if i > n-3 {
		i = n - 3
	}
	return i
}

// Options builds the solver configuration for one scenario. The source is
// a strike-slip point moment with a Gaussian rate pulse; the moment
// follows Hanks–Kanamori, down-scaled into the demonstration grid's
// linear-elastic regime (peak values only feed relative hazard products).
func (e EnsembleSpec) Options(sc Scenario) solver.Options {
	topo := mpi.NewCart(1, 1, 1)
	if e.Ranks > 1 {
		topo = mpi.NewCart(e.Ranks, 1, 1)
	}
	gi := hypoIndex(sc.HypoX, e.Dims.NX)
	gj := hypoIndex(sc.HypoY, e.Dims.NY)
	gk := hypoIndex(sc.HypoZ, e.Dims.NZ)
	// Normalize the moment so the demonstration runs stay numerically
	// tame across the magnitude range while preserving Mw ordering.
	m0 := e.H * e.H * e.H * 1e3 * math.Pow(10, sc.Mw-5.5)
	ps := source.PointSource{
		GI: gi, GJ: gj, GK: gk, M0: m0,
		Tensor: source.StrikeSlipXY,
		STF:    source.GaussianPulse(0.08, 0.02),
	}
	return solver.Options{
		Global: e.Dims, H: e.H, Steps: e.Steps, Topo: topo,
		Comm: solver.AsyncReduced,
		ABC:  solver.SpongeABC, SpongeWidth: 4,
		FreeSurface: true,
		Sources:     []source.SampledSource{ps.Sample(0.002, 120)},
		TrackPGV:    true,
	}
}

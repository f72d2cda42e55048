// Package awp is the public API of this AWP-ODC reproduction: anelastic
// wave propagation (AWM) and staggered-grid split-node dynamic rupture
// (DFR) on a 3D velocity–stress staggered grid, with the petascale
// ecosystem of the SC'10 paper (mesh generation and partitioning, source
// generation, parallel output, checkpointing, performance modeling, and
// ground-motion analysis) available through the sub-packages of
// repro/internal for advanced use.
//
// Quick start:
//
//	q := awp.SoCalModel(20e3, 20e3, 10e3, 500)
//	res, err := awp.Run(q, awp.Scenario{
//	    Dims: awp.Dims{NX: 40, NY: 40, NZ: 20},
//	    H:    500, Steps: 300,
//	    Sources: awp.PointMomentSource(20, 20, 10, 1e17, 0.5, 0.1),
//	    TrackPGV: true,
//	})
package awp

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core/boundary"
	"repro/internal/core/rupture"
	"repro/internal/core/solver"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// Dims is the global grid extent in cells.
type Dims = grid.Dims

// Material is a (Vp, Vs, rho) property triple.
type Material = cvm.Material

// Model is a queryable velocity model.
type Model = cvm.Querier

// Result carries the rank-0 outputs of a run.
type Result = solver.Result

// Seismogram is one receiver's three-component velocity time series.
type Seismogram = [][3]float32

// FaultSpec configures dynamic-rupture (DFR) mode.
type FaultSpec = solver.FaultSpec

// Friction is the slip-weakening friction law parameters.
type Friction = rupture.Friction

// GMPE is a ground-motion prediction equation (Fig 23 comparisons).
type GMPE = analysis.GMPE

// TelemetryOptions enables the per-rank phase instrumentation; the
// aggregated report lands in Result.Telemetry and can be exported as a
// Chrome trace with its WriteChromeTrace method.
type TelemetryOptions = telemetry.Options

// TelemetryReport is the aggregated cross-rank phase report.
type TelemetryReport = telemetry.Report

// Comm models (§IV.A of the paper).
const (
	Synchronous  = solver.Synchronous
	Asynchronous = solver.Asynchronous
	AsyncReduced = solver.AsyncReduced
	AsyncOverlap = solver.AsyncOverlap
)

// Absorbing boundary kinds (§II.D).
const (
	NoABC     = solver.NoABC
	SpongeABC = solver.SpongeABC
	MPMLABC   = solver.MPMLABC
)

// Scenario is a simulation configuration. Its zero value runs the plainest
// solver: Synchronous communication, no absorbing boundary (NoABC), no free
// surface and no attenuation, on one rank and one thread, with Dt chosen
// from the CFL limit; the quick start above relies on those zero values.
// The paper's production set-up — asynchronous reduced communication,
// M-PML sides and bottom, the FS2 free surface on top and coarse-grained
// constant-Q attenuation — is Comm: solver.AsyncReduced, ABC: MPMLABC,
// FreeSurface: true and Attenuation: true, each set by hand.
type Scenario struct {
	Dims  Dims
	H     float64 // grid spacing, m
	Dt    float64 // 0: automatic at the CFL safety factor; negative or non-finite rejected
	Steps int

	// CFL is the safety factor for the automatic time step. 0 defaults to
	// the historical 0.5; explicit values must lie in (0, 1].
	CFL float64

	// Ranks is the number of MPI ranks (goroutines); 0 or 1 runs single
	// rank, negative values are rejected. The 3D topology is the
	// factorisation with the least predicted step time of the slowest rank
	// (decomp.StepCost), a function of Dims, Ranks, ABC and DFR mode alone;
	// Topology reports it.
	Ranks int

	// Threads is the cores each rank may use (the hybrid MPI/OpenMP mode
	// of §IV.D, whose conclusion is that pure MPI wins on small
	// subdomains): Run folds them into Ranks×Threads ranks of one goroutine
	// each, or into Ranks where that many do not fit the grid (Topology).
	// 0 counts as 1; negative values are rejected. Results are
	// bit-identical across Threads.
	Threads int

	// Comm is the communication model (§IV.A); every model composes with
	// DFR mode, AsyncOverlap included.
	Comm        solver.CommModel
	ABC         solver.ABCKind
	SpongeWidth int // 0: 8 cells (laptop-scale default; production uses 20)
	FreeSurface bool
	Attenuation bool

	Sources []source.SampledSource
	// Fault, when set, runs DFR mode: a spontaneous rupture on the plane
	// y = J0. The ranks are then never split in y.
	Fault     *FaultSpec
	Receivers [][3]int
	TrackPGV  bool

	// Telemetry enables per-rank phase instrumentation (nil: off, zero
	// overhead beyond nil checks). Results are bit-identical either way.
	Telemetry *TelemetryOptions
}

// Topology returns the rank topology Run uses for sc: the factorisation of
// Ranks×Threads ranks that decomp.StepCost prices lowest among those that
// leave each rank on a split axis 2·Ghost cells (what decomp.New needs) or,
// under M-PML, a zone and an interior plane, and that in DFR mode keep
// PY = 1 so the fault plane stays on one rank in y. When no factorisation
// of Ranks×Threads fits, it falls back to one of Ranks, so a scenario that
// runs at one core a rank runs at any Threads. Ranks and Threads of 0
// count as 1; negative values are rejected.
func Topology(sc Scenario) (mpi.Cart, error) {
	if sc.Ranks < 0 {
		return mpi.Cart{}, fmt.Errorf("awp: Ranks must be positive, or zero for one rank; got %d", sc.Ranks)
	}
	if sc.Threads < 0 {
		return mpi.Cart{}, fmt.Errorf("awp: Threads must be positive, or zero for one core a rank; got %d", sc.Threads)
	}
	ranks, threads := max(sc.Ranks, 1), max(sc.Threads, 1)
	minCells := 2 * grid.Ghost
	if sc.ABC == MPMLABC {
		minCells = boundary.DefaultPMLWidth + 1
	}
	// No factorisation fits more ranks than the grid has minCells-cubes, so
	// a larger count is refused without the search, which takes time linear
	// in the count.
	cubes := (sc.Dims.NX / minCells) * (sc.Dims.NY / minCells) * (sc.Dims.NZ / minCells)
	best := func(n int) (mpi.Cart, error) {
		switch {
		case n == 1:
			return mpi.NewCart(1, 1, 1), nil
		case n > cubes:
			return mpi.Cart{}, fmt.Errorf("awp: no topology of %d ranks leaves each rank %d cells per axis of the %v grid", n, minCells, sc.Dims)
		}
		return decomp.BestTopo(sc.Dims, n, minCells, sc.Fault != nil, decomp.StepCost)
	}
	// threads <= cubes/ranks keeps Ranks×Threads from overflowing.
	if threads > 1 && threads <= cubes/ranks {
		if topo, err := best(ranks * threads); err == nil {
			return topo, nil
		}
	}
	return best(ranks)
}

// Run executes a wave-propagation (AWM) or dynamic-rupture (DFR) scenario.
func Run(q Model, sc Scenario) (*Result, error) {
	topo, err := Topology(sc)
	if err != nil {
		return nil, err
	}
	if sc.SpongeWidth <= 0 {
		sc.SpongeWidth = 8
	}
	opt := solver.Options{
		Global:      sc.Dims,
		H:           sc.H,
		Dt:          sc.Dt,
		CFL:         sc.CFL,
		Steps:       sc.Steps,
		Topo:        topo,
		Comm:        sc.Comm,
		ABC:         sc.ABC,
		SpongeWidth: sc.SpongeWidth,
		FreeSurface: sc.FreeSurface,
		Attenuation: sc.Attenuation,
		Sources:     sc.Sources,
		Fault:       sc.Fault,
		Receivers:   sc.Receivers,
		TrackPGV:    sc.TrackPGV,
		Telemetry:   sc.Telemetry,
	}
	return solver.Run(q, opt)
}

// SoCalModel returns the synthetic southern-California velocity model
// (CVM4 stand-in) spanning lx x ly x lz meters with the given Vs floor.
func SoCalModel(lx, ly, lz, minVs float64) Model {
	return cvm.SoCal(lx, ly, lz, minVs)
}

// LayeredModel returns the generic hard-rock layered model (CVM-H
// stand-in).
func LayeredModel() Model { return cvm.HardRock() }

// HomogeneousModel returns a uniform medium.
func HomogeneousModel(m Material) Model { return cvm.Homogeneous(m) }

// PointMomentSource builds a single sub-fault strike-slip point source of
// moment m0 (N*m) at global node (i, j, k) with a Gaussian moment-rate
// pulse centred at t0 with width sigma, sampled finely enough for any
// stable dt.
func PointMomentSource(i, j, k int, m0, t0, sigma float64) []source.SampledSource {
	dt := sigma / 20
	// The conversion rounds 6σ before the add, so no architecture fuses
	// the two into a multiply-add that could move nt.
	nt := int((t0+float64(6*sigma))/dt) + 1
	ps := source.PointSource{
		GI: i, GJ: j, GK: k, M0: m0,
		Tensor: source.StrikeSlipXY,
		STF:    source.GaussianPulse(t0, sigma),
	}
	return []source.SampledSource{ps.Sample(dt, nt)}
}

// ExplosionSource is PointMomentSource with an isotropic tensor.
func ExplosionSource(i, j, k int, m0, t0, sigma float64) []source.SampledSource {
	dt := sigma / 20
	nt := int((t0+float64(6*sigma))/dt) + 1
	ps := source.PointSource{
		GI: i, GJ: j, GK: k, M0: m0,
		Tensor: source.Explosion,
		STF:    source.GaussianPulse(t0, sigma),
	}
	return []source.SampledSource{ps.Sample(dt, nt)}
}

// HaskellRupture generates a kinematic finite-fault source (dSrcG).
type HaskellRupture = source.HaskellSpec

// M8FaultSpec builds a DFR fault specification with the paper's M8 initial
// stress recipe (§VII.A): depth-dependent normal stress, Von Kármán random
// shear stress, velocity strengthening near the surface, Dc taper, and a
// circular nucleation patch.
func M8FaultSpec(j0, i0, i1, k0, k1 int, h float64, nucI, nucK, nucRadius int, seed int64) *FaultSpec {
	spec := rupture.M8StressSpec(i1-i0, k1-k0, h)
	spec.Seed = seed
	tau, sn, fr := spec.Build()
	rupture.Nucleate(tau, sn, fr, nucI-i0, nucK-k0, nucRadius, 0.01)
	return &FaultSpec{
		J0: j0, I0: i0, I1: i1, K0: k0, K1: k1,
		Tau0: tau, SigmaN: sn, Friction: fr,
		RecordEvery: 2,
	}
}

// BooreAtkinson2008 and CampbellBozorgnia2008 are the Fig 23 NGA curves.
func BooreAtkinson2008() GMPE     { return analysis.BooreAtkinson2008{} }
func CampbellBozorgnia2008() GMPE { return analysis.CampbellBozorgnia2008{} }

// PGVH returns the peak RSS horizontal velocity of a seismogram.
func PGVH(s Seismogram) float64 { return analysis.PGVHFromSeries(s) }

package main

import (
	"fmt"
	"time"

	"repro/internal/core/solver"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/telemetry"
)

// Hybrid model-execution scaling: a sampled subset of ranks executes
// real kernels on this host, per-rank constants are measured from those
// executions (compute per cell from instrumented solver steps, alpha/
// beta from FitAlphaBeta over halo-exchange sweeps, barrier rounds from
// the tree collectives), and an mpi.VirtualWorld carries the remaining
// ranks in virtual time priced by perfmodel Eq. 7/8. This reproduces
// the paper's Fig. 5/6 weak/strong curves at P = O(10^4) from measured
// constants rather than Table 1 constants — the same fit-small,
// predict-large validation the paper itself performs (§V.A).

// hybridConfig configures a hybrid scaling run.
type hybridConfig struct {
	// PerRank is the per-rank subgrid of the weak-scaling sweep; every
	// decomposed axis must be >= 4 (the solver's halo-depth floor).
	PerRank grid.Dims
	// SampleRanks is the number of ranks that execute for real (both to
	// measure constants and as the VirtualWorld sample).
	SampleRanks int
	// Steps is the measured/virtual step count.
	Steps int
	// Reps is the number of measurement repetitions (min is kept).
	Reps int
	// Ranks is the weak/strong sweep, e.g. {64, 512, 4096, 10240}.
	Ranks []int
}

// hybridPoint is one rank count of the hybrid weak-scaling curve.
type hybridPoint struct {
	Ranks        int
	Topo         [3]int
	Global       grid.Dims
	SampledRanks int
	// StepSec is the virtual-cluster time per step: the slowest rank's
	// VirtualWorld clock divided by the step count.
	StepSec float64
	// Model is the Eq. 7 breakdown of an interior rank at this scale.
	Model perfmodel.Breakdown
	// SkewSec is the fastest-to-slowest virtual clock spread after the
	// run — the load imbalance between corner/edge/face/interior roles.
	SkewSec    float64
	Efficiency float64 // T(1 rank)/T(P), per-rank work fixed
	Tflops     float64
	// HostProjStepSec projects a full (every-rank-real) execution of
	// this point on this host: total work × measured host sec/cell.
	HostProjStepSec float64
}

// hybridScaling is the full output of hybridRun.
type hybridScaling struct {
	Constants perfmodel.MeasuredConstants
	Weak      []hybridPoint
	// Strong is the Fig. 6-style strong-scaling sweep over the largest
	// weak-point global grid, priced from the same measured constants.
	Strong []perfmodel.ScalingPoint
}

// sampleOptions builds the instrumented solver options for a real
// execution of topo over global cells. Every rank has an explosion at the
// centre of its subgrid, live from the first step, so its active box fills
// the subgrid within two steps and a step costs what the rank owns: a run
// with no source sweeps nothing, and would measure that.
func sampleOptions(global grid.Dims, topo mpi.Cart, steps int) solver.Options {
	per := grid.Dims{NX: global.NX / topo.PX, NY: global.NY / topo.PY, NZ: global.NZ / topo.PZ}
	var srcs []source.SampledSource
	for pz := 0; pz < topo.PZ; pz++ {
		for py := 0; py < topo.PY; py++ {
			for px := 0; px < topo.PX; px++ {
				srcs = append(srcs, source.PointSource{
					GI: px*per.NX + per.NX/2, GJ: py*per.NY + per.NY/2, GK: pz*per.NZ + per.NZ/2,
					M0: 1e15, Tensor: source.Explosion, STF: source.GaussianPulse(0.06, 0.02),
				}.Sample(0.002, 200))
			}
		}
	}
	return solver.Options{
		Global: global, H: 100, Steps: steps, Topo: topo,
		Comm: solver.AsyncReduced, Threads: 1,
		ABC: solver.SpongeABC, SpongeWidth: 4,
		FreeSurface: true, Attenuation: true,
		Sources:   srcs,
		Telemetry: &telemetry.Options{},
	}
}

// measureConstants executes the sampled ranks for real and distills the
// per-rank constants the hybrid extrapolation prices from.
func measureConstants(q cvm.Querier, cfg hybridConfig) (perfmodel.MeasuredConstants, error) {
	var mc perfmodel.MeasuredConstants
	mc.SampleRanks = cfg.SampleRanks
	cells := cfg.PerRank.Cells()

	// Compute per cell: a single-rank instrumented run. P=1 keeps the
	// measurement uncontended — on an oversubscribed host, multi-rank
	// per-rank spans include descheduled time and would overstate comp.
	for rep := 0; rep < cfg.Reps; rep++ {
		res, err := solver.Run(q, sampleOptions(cfg.PerRank, mpi.NewCart(1, 1, 1), cfg.Steps))
		if err != nil {
			return mc, fmt.Errorf("hybrid comp measurement: %w", err)
		}
		cpc := res.Timing.Comp / float64(cfg.Steps) / float64(cells)
		if rep == 0 || cpc < mc.CompSecPerCell {
			mc.CompSecPerCell = cpc
		}
	}

	// Host projection constants: real weak-scaling runs at TWO sampled
	// world sizes with different mean neighbor counts pin the per-rank
	// and per-neighbor host costs. In weak scaling cells scale exactly
	// with ranks, so a per-rank term absorbs compute plus physical-
	// boundary work (a rank's faces are either neighbor faces or
	// physical faces — the two counts sum to 6, so the split folds into
	// the fit), and the neighbor term carries halo traffic and scheduler
	// churn. One size alone cannot see the neighbor term and undershoots
	// larger worlds by ~25%.
	topo := decomp.WeakTopo(cfg.PerRank, cfg.SampleRanks)
	topo2 := decomp.WeakTopo(cfg.PerRank, 4*cfg.SampleRanks)
	walls := [2]float64{}
	for i, tp := range []mpi.Cart{topo, topo2} {
		g := grid.Dims{
			NX: cfg.PerRank.NX * tp.PX,
			NY: cfg.PerRank.NY * tp.PY,
			NZ: cfg.PerRank.NZ * tp.PZ,
		}
		sec, err := measureStepSec(q, g, tp, cfg.Steps, cfg.Reps)
		if err != nil {
			return mc, fmt.Errorf("hybrid sampled run (%d ranks): %w", tp.Size(), err)
		}
		walls[i] = sec
	}
	s1, n1 := float64(topo.Size()), float64(sumNeighbors(topo))
	s2, n2 := float64(topo2.Size()), float64(sumNeighbors(topo2))
	det := s1*n2 - s2*n1
	if det != 0 {
		mc.HostRankStepSec = (walls[0]*n2 - walls[1]*n1) / det
		mc.HostNbrStepSec = (s1*walls[1] - s2*walls[0]) / det
	}
	if det == 0 || mc.HostNbrStepSec < 0 || mc.HostRankStepSec <= 0 {
		// Degenerate fit (identical mean neighbor counts, or noise drove
		// a constant negative): attribute everything to the per-rank term
		// of the larger — more interior-heavy — sample.
		mc.HostRankStepSec = walls[1] / s2
		mc.HostNbrStepSec = 0
	}

	// Alpha/beta: halo-exchange sweeps that vary byte volume (two local
	// sizes) independently of message count (the sample topology against
	// a two-rank line: 1 neighbor per rank instead of the sample's mean),
	// then the relative least-squares fit. The constants describe THIS
	// transport — a goroutine runtime's alpha is ~0.1µs, three orders
	// below Jaguar's; the curves are honest about that.
	small := grid.Dims{
		NX: max(4, cfg.PerRank.NX/2),
		NY: max(4, cfg.PerRank.NY/2),
		NZ: max(4, cfg.PerRank.NZ/2),
	}
	var samples []perfmodel.CommSample
	var prod solver.HaloBenchResult // the sample topology at the production size
	for _, tp := range []mpi.Cart{topo, mpi.NewCart(2, 1, 1)} {
		for _, local := range []grid.Dims{cfg.PerRank, small} {
			r := solver.RunHaloExchangeBench(solver.HaloBenchConfig{
				Topo: tp, Local: local, Model: solver.AsyncReduced,
				Threads: 1, Steps: cfg.Steps,
			})
			samples = append(samples, perfmodel.CommSample{
				Msgs:  int(r.VelMsgs + r.StressMsgs),
				Bytes: 4 * (r.VelFloats + r.StressFloats),
				Sec:   r.SecPerStep,
			})
			if tp == topo && local == cfg.PerRank {
				prod = r
			}
		}
	}
	var ok bool
	mc.Alpha, mc.Beta, ok = perfmodel.FitAlphaBeta(samples)
	if !ok || mc.Alpha < 0 || mc.Beta < 0 {
		// Degenerate fit (the transport's alpha can sit in measurement
		// noise, or the sample topology is itself the two-rank line):
		// fall back to attributing the whole production exchange to the
		// volume term and pricing alpha at zero.
		mc.Alpha = 0
		mc.Beta = samples[0].Sec / samples[0].Bytes
	}
	mc.MsgsPerRankStep = (prod.VelMsgs + prod.StressMsgs) / float64(topo.Size())
	mc.BytesPerRankStep = 4 * (prod.VelFloats + prod.StressFloats) / float64(topo.Size())

	// One tree-barrier round at the sample size.
	const rounds = 200
	w := mpi.NewWorld(cfg.SampleRanks)
	t0 := time.Now()
	w.Run(func(c *mpi.Comm) {
		for i := 0; i < rounds; i++ {
			c.Barrier()
		}
	})
	mc.SyncPerRound = time.Since(t0).Seconds() / rounds
	return mc, nil
}

// measureStepSec measures the pure per-step wall seconds of a real
// execution by differencing: min wall over reps at `steps` steps vs at
// 2*steps, with (t2 - t1)/steps cancelling the one-shot setup cost
// (medium extraction, state allocation, goroutine spawn) that otherwise
// pollutes wall/steps differently at different world sizes. Min over
// reps is the right noise estimator for each wall — scheduler noise is
// additive and positive — and the subtraction of two mins keeps the
// setup term, common to both, out of the step estimate.
func measureStepSec(q cvm.Querier, global grid.Dims, topo mpi.Cart, steps, reps int) (float64, error) {
	wall := func(n int) (float64, error) {
		best := 0.0
		for rep := 0; rep < reps; rep++ {
			t0 := time.Now()
			if _, err := solver.Run(q, sampleOptions(global, topo, n)); err != nil {
				return 0, err
			}
			sec := time.Since(t0).Seconds()
			if rep == 0 || sec < best {
				best = sec
			}
		}
		return best, nil
	}
	t1, err := wall(steps)
	if err != nil {
		return 0, err
	}
	t2, err := wall(2 * steps)
	if err != nil {
		return 0, err
	}
	sec := (t2 - t1) / float64(steps)
	if sec <= 0 {
		// Degenerate (noise swamped the differencing): fall back to the
		// longer run's raw average, which at 2*steps has the smaller
		// setup fraction.
		sec = t2 / float64(2*steps)
	}
	return sec, nil
}

// meanNeighbors returns the average neighbor count over a topology.
func meanNeighbors(t mpi.Cart) float64 {
	return float64(sumNeighbors(t)) / float64(t.Size())
}

// sumNeighbors returns the topology-wide neighbor-count total.
func sumNeighbors(t mpi.Cart) int {
	sum := 0
	for r := 0; r < t.Size(); r++ {
		sum += neighborCount(t, r)
	}
	return sum
}

func neighborCount(t mpi.Cart, r int) int {
	n := 0
	for axis := 0; axis < 3; axis++ {
		if t.Neighbor(r, axis, -1) >= 0 {
			n++
		}
		if t.Neighbor(r, axis, +1) >= 0 {
			n++
		}
	}
	return n
}

// hybridRun measures constants on the sampled ranks and extrapolates
// the weak/strong scaling curves across cfg.Ranks with a VirtualWorld
// per point: sampled ranks advance by their measured per-step cost,
// virtual ranks by the Eq. 7 breakdown, with per-rank communication
// scaled by each rank's neighbor count (corner/edge/face/interior).
func hybridRun(q cvm.Querier, cfg hybridConfig) (*hybridScaling, error) {
	if len(cfg.Ranks) == 0 {
		return nil, fmt.Errorf("hybrid: empty rank sweep")
	}
	mc, err := measureConstants(q, cfg)
	if err != nil {
		return nil, err
	}
	out := &hybridScaling{Constants: mc}
	cellsPerRank := cfg.PerRank.Cells()
	// T(N,1) has no communication: the weak-efficiency baseline is the
	// single-rank compute time, the Eq. 8 numerator.
	b1 := perfmodel.StepTime(mc.HybridJob(cfg.PerRank, 1))
	t1 := b1.Comp + b1.IO

	sampleTopo := decomp.WeakTopo(cfg.PerRank, cfg.SampleRanks)
	sampleMeanNbr := meanNeighbors(sampleTopo)

	var maxGlobal grid.Dims
	for _, p := range cfg.Ranks {
		topo := decomp.WeakTopo(cfg.PerRank, p)
		global := grid.Dims{
			NX: cfg.PerRank.NX * topo.PX,
			NY: cfg.PerRank.NY * topo.PY,
			NZ: cfg.PerRank.NZ * topo.PZ,
		}
		if global.Cells() > maxGlobal.Cells() {
			maxGlobal = global
		}
		b := perfmodel.StepTime(mc.HybridJob(global, p))
		sampled := mpi.SampleStrata(topo, min(cfg.SampleRanks, p))
		vw := mpi.NewVirtualWorld(p, sampled)
		for step := 0; step < cfg.Steps; step++ {
			for r := 0; r < p; r++ {
				frac := float64(neighborCount(topo, r)) / 6
				var dt float64
				if vw.IsSampled(r) {
					// Real-execution constants: measured comp, measured
					// traffic priced at the fitted (alpha, beta), scaled
					// from the sample world's mean boundary role to this
					// rank's role.
					role := frac * 6 / sampleMeanNbr
					dt = mc.CompSecPerCell*float64(cellsPerRank) +
						perfmodel.MessageCost(mc.Alpha, mc.Beta,
							int(mc.MsgsPerRankStep*role+0.5),
							mc.BytesPerRankStep*role) +
						b.Sync
				} else {
					dt = b.Comp + b.Comm*frac + b.Sync
				}
				vw.Advance(r, dt)
			}
		}
		st := vw.MaxTime() / float64(cfg.Steps)
		out.Weak = append(out.Weak, hybridPoint{
			Ranks:           p,
			Topo:            [3]int{topo.PX, topo.PY, topo.PZ},
			Global:          global,
			SampledRanks:    len(sampled),
			StepSec:         st,
			Model:           b,
			SkewSec:         vw.Skew(),
			Efficiency:      t1 / st,
			Tflops:          perfmodel.UsefulFlopsPerCell * float64(global.Cells()) / st / 1e12,
			HostProjStepSec: mc.HostProjectedStepSec(p, sumNeighbors(topo)),
		})
	}
	out.Strong = mc.HybridStrongCurve(maxGlobal, cfg.Ranks)
	return out, nil
}

// runFullWeakPoint really executes every rank of one weak-scaling point
// on this host and returns the measured wall seconds per step — the
// ground truth the hybrid host projection is gated against at a size
// the host can still hold (the BENCH_8 parity check at P=64). It uses
// the same setup-cancelling differencing as the sampled measurement so
// both sides of the parity gate estimate the identical quantity.
func runFullWeakPoint(q cvm.Querier, cfg hybridConfig, ranks int) (float64, error) {
	topo := decomp.WeakTopo(cfg.PerRank, ranks)
	global := grid.Dims{
		NX: cfg.PerRank.NX * topo.PX,
		NY: cfg.PerRank.NY * topo.PY,
		NZ: cfg.PerRank.NZ * topo.PZ,
	}
	sec, err := measureStepSec(q, global, topo, cfg.Steps, cfg.Reps)
	if err != nil {
		return 0, fmt.Errorf("full weak point: %w", err)
	}
	return sec, nil
}

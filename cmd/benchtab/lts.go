package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/core/fd"
	"repro/internal/core/solver"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/mpi"
)

// ltsBasinRock is the benchmark medium: hard rock for x < split metres,
// a soft sedimentary basin beyond. The ~4x Vp contrast pins the rock
// ranks at the base step while the basin ranks are stable at 4x the step,
// which is exactly the regime multi-rate LTS targets (§ the paper's
// motivation: minimum-Vs basins force the global step of a uniform-rate
// run).
type ltsBasinRock struct{ split float64 }

func (m ltsBasinRock) Query(x, _, _ float64) cvm.Material {
	if x < m.split {
		return cvm.Material{Vp: 5200, Vs: 3000, Rho: 2700}
	}
	return cvm.Material{Vp: 1250, Vs: 720, Rho: 1900}
}

// ltsPlan is the analytic rate-plan accounting on the timing scenario:
// per-rank rates, naive (block) vs work-balanced cut offsets along x, and
// the amortized work factor sum(width/rate)/NX — the fraction of classic
// per-base-step cell updates the multi-rate schedule performs.
type ltsPlan struct {
	Grid         string  `json:"grid"`
	SplitPlane   int     `json:"split_plane"`
	Rates        []int   `json:"rates"`
	NaiveCuts    []int   `json:"naive_cuts"`
	BalancedCuts []int   `json:"balanced_cuts"`
	WorkFactor   float64 `json:"work_factor"`
	// MaxRankCost is max(width/rate) per base step, the load-balance
	// objective of the cut DP, for each cut layout.
	NaiveMaxCost    int `json:"naive_max_cost"`
	BalancedMaxCost int `json:"balanced_max_cost"`
}

// ltsTiming is the measured head-to-head: classic global-dt stepping vs
// the multi-rate schedule on the same scenario, stepping loop only,
// minimum over interleaved repetitions.
type ltsTiming struct {
	Grid           string  `json:"grid"`
	Topo           string  `json:"topo"`
	Steps          int     `json:"steps"`
	Reps           int     `json:"reps"`
	ClassicStepSec float64 `json:"classic_step_sec"`
	LTSStepSec     float64 `json:"lts_step_sec"`
	Speedup        float64 `json:"speedup"`
	// Below1_3x is a warning, not a verdict: 1.3x is what the scenario
	// was sized for, and a stopwatch on a shared host decides no exit code.
	Below1_3x bool `json:"below_1_3x"`
}

// ltsAccuracyRow is one receiver of one mixed-rate accuracy run: the
// seismogram relative L2 error and PGV relative error of the LTS run
// against the classic global-dt reference, with the enforced tolerance.
type ltsAccuracyRow struct {
	MaxRateRatio int     `json:"max_rate_ratio"`
	Receiver     string  `json:"receiver"`
	SeisRelL2    float64 `json:"seis_rel_l2"`
	SeisTol      float64 `json:"seis_tol"`
	PGVRelErr    float64 `json:"pgv_rel_err"`
	PGVTol       float64 `json:"pgv_tol"`
}

type ltsReport struct {
	GeneratedBy string `json:"generated_by"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	Warning     string `json:"warning,omitempty"`
	// Rate1Identity: a uniform-rate medium under the LTS engine must be
	// bit-identical to classic stepping (checksums compared, enforced).
	Rate1ClassicChecksum string `json:"rate1_classic_checksum"`
	Rate1LTSChecksum     string `json:"rate1_lts_checksum"`
	Rate1Identical       bool   `json:"rate1_identical"`
	// AccuracyNote documents why the error bounds are what they are.
	AccuracyNote string           `json:"accuracy_note"`
	Accuracy     []ltsAccuracyRow `json:"accuracy"`
	Plan         ltsPlan          `json:"plan"`
	Timing       ltsTiming        `json:"timing"`
}

// ltsTimingOptions is the basin-over-rock timing scenario with the full
// production feature surface (sponge, free surface, attenuation,
// receivers, PGV), so the measured speedup prices everything the
// multi-rate schedule must carry, not just the stencil kernels. It has a
// source in every eighth of the x axis, so that under either set of cuts
// every rank's active box fills its subgrid inside the warm-up of
// ltsTimedRun: the comparison is of filled grids, where a step costs what a
// rank owns.
func ltsTimingOptions(g grid.Dims, steps int, topo mpi.Cart, lts bool) (cvm.Querier, solver.Options) {
	q := ltsBasinRock{split: float64(g.NX/2) * 100}
	var srcs []source.SampledSource
	for e := 1; e < 8; e += 2 {
		srcs = append(srcs, source.PointSource{
			GI: e * g.NX / 8, GJ: g.NY / 2, GK: g.NZ / 2, M0: 1e15,
			Tensor: source.Explosion, STF: source.GaussianPulse(0.06, 0.02),
		}.Sample(0.002, 200))
	}
	return q, solver.Options{
		Global: g, H: 100, Steps: steps, Topo: topo,
		Comm: solver.Asynchronous, Threads: 1,
		Blocking: fd.DefaultBlocking,
		ABC:      solver.SpongeABC, SpongeWidth: 4,
		FreeSurface: true, Attenuation: true,
		Sources:   srcs,
		Receivers: [][3]int{{g.NX / 4, g.NY / 2, 4}, {3 * g.NX / 4, g.NY / 2, 4}},
		TrackPGV:  true,
		LTS:       solver.LTSOptions{Enabled: lts, MaxRateRatio: 4, WorkBalance: true},
	}
}

// ltsTimedRun executes one distributed run through the Stepper API so the
// timer brackets only the stepping loop (CVM sampling, medium and rate
// planning setup are excluded), and returns the per-base-step wall time
// plus the rate plan actually assigned. The first warm base steps run
// untimed: until a rank's active box has filled its subgrid a step costs
// what the waves have reached, not what the rank owns, so timed from rest the
// comparison would price the quiet grid, which both schedules skip, and not
// the filled one, where the multi-rate schedule earns its keep.
func ltsTimedRun(q cvm.Querier, opt solver.Options, warm int) (float64, []int, []int) {
	opt.Steps += warm
	opt, err := solver.PlanLTS(q, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: lts: %v\n", err)
		os.Exit(1)
	}
	dc, opt, err := solver.Prepare(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: lts: %v\n", err)
		os.Exit(1)
	}
	var sec float64
	var rates []int
	w := mpi.NewWorld(opt.Topo.Size())
	w.Run(func(c *mpi.Comm) {
		st, err := solver.NewStepper(c, q, dc, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: lts: %v\n", err)
			os.Exit(1)
		}
		defer st.Close()
		for st.StepIndex() < warm {
			st.Step()
		}
		t0 := time.Now()
		for !st.Done() {
			st.Step()
		}
		if c.Rank() == 0 {
			sec = time.Since(t0).Seconds()
			rates = st.LTSRates()
		}
		if _, err := st.Finish(); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: lts: %v\n", err)
			os.Exit(1)
		}
	})
	return sec / float64(opt.Steps-warm), rates, dc.Cuts(0)
}

// ltsAccuracyOptions is the long-horizon accuracy scenario: small enough
// that 192 base steps let the wavefront cross the rate boundary and
// register at all three receivers (rock side, on the boundary, basin
// side). Mirrors the solver acceptance test TestLTSMixedRateAccuracy.
func ltsAccuracyOptions(steps, ratio int, lts bool) (cvm.Querier, solver.Options) {
	g := grid.Dims{NX: 32, NY: 16, NZ: 16}
	q := ltsBasinRock{split: 16 * 100}
	src := source.PointSource{
		GI: 8, GJ: 8, GK: 8, M0: 1e15,
		Tensor: source.Explosion, STF: source.GaussianPulse(0.06, 0.015),
	}
	return q, solver.Options{
		Global: g, H: 100, Steps: steps, Topo: mpi.NewCart(2, 1, 1),
		Comm: solver.Asynchronous, Threads: 1,
		ABC: solver.SpongeABC, SpongeWidth: 4,
		FreeSurface: true,
		Sources:     []source.SampledSource{src.Sample(0.002, 200)},
		Receivers:   [][3]int{{8, 8, 4}, {16, 8, 4}, {24, 8, 4}},
		TrackPGV:    true,
		LTS:         solver.LTSOptions{Enabled: lts, MaxRateRatio: ratio, WorkBalance: lts},
	}
}

// ltsRelL2 is ||a-b|| / ||b|| over a three-component seismogram.
func ltsRelL2(a, b [][3]float32) float64 {
	var num, den float64
	for n := range b {
		for c := 0; c < 3; c++ {
			d := float64(a[n][c]) - float64(b[n][c])
			num += d * d
			den += float64(b[n][c]) * float64(b[n][c])
		}
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// ltsAxisCosts returns per-rank base-step costs width/rate for cut
// offsets along x, given the per-plane rate vector.
func ltsAxisCosts(cuts []int, planeRates []int) []int {
	costs := make([]int, len(cuts)-1)
	for r := 0; r+1 < len(cuts); r++ {
		minRate := planeRates[cuts[r]]
		for p := cuts[r]; p < cuts[r+1]; p++ {
			if planeRates[p] < minRate {
				minRate = planeRates[p]
			}
		}
		costs[r] = (cuts[r+1] - cuts[r]) / minRate
	}
	return costs
}

func ltsMaxInt(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// ltsExp benchmarks multi-rate local time stepping: the rate plan and
// work-balanced cuts on a basin-over-rock scenario, the measured
// wall-clock speedup of the multi-rate schedule against classic global-dt
// stepping (recorded, with a below_1_3x warning; no exit code), the
// rate-1 bit-identity guarantee, and the mixed-rate accuracy against the
// global-dt reference with enforced tolerances. Writes BENCH_7.json (or
// outPath).
func ltsExp(outPath string, short bool) {
	header("Multi-rate local time stepping: basin-over-rock")
	rep := ltsReport{
		GeneratedBy: "cmd/benchtab -exp lts",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
	}
	fmt.Printf("GOMAXPROCS=%d NumCPU=%d\n", rep.GOMAXPROCS, rep.NumCPU)
	if rep.GOMAXPROCS == 1 {
		rep.Warning = "GOMAXPROCS=1: rank goroutines serialize, so wall time tracks aggregate " +
			"work; the classic-vs-LTS comparison is fair (both serialize alike) and directly " +
			"measures the multi-rate work reduction"
		fmt.Printf("WARNING: %s\n", rep.Warning)
	}

	// Rate-1 identity: a depth-uniform medium (SoCal varies only with z,
	// and the topology splits x/y) plans rate 1 everywhere, and the LTS
	// engine must then be bit-identical to classic stepping.
	idGrid := grid.Dims{NX: 32, NY: 32, NZ: 24}
	idSteps := 16
	runChecksum := func(lts bool) string {
		q := cvm.SoCal(float64(idGrid.NX)*100, float64(idGrid.NY)*100, float64(idGrid.NZ)*100, 500)
		src := source.PointSource{
			GI: 16, GJ: 16, GK: 12, M0: 1e15,
			Tensor: source.Explosion, STF: source.GaussianPulse(0.06, 0.02),
		}
		opt := solver.Options{
			Global: idGrid, H: 100, Steps: idSteps, Topo: mpi.NewCart(2, 2, 1),
			Comm: solver.Asynchronous, Threads: 1,
			Blocking: fd.DefaultBlocking,
			ABC:      solver.SpongeABC, SpongeWidth: 4,
			FreeSurface: true, Attenuation: true,
			Sources:   []source.SampledSource{src.Sample(0.002, 200)},
			Receivers: [][3]int{{16, 16, 0}, {4, 4, 0}},
			TrackPGV:  true,
			LTS:       solver.LTSOptions{Enabled: lts, MaxRateRatio: 4, WorkBalance: lts},
		}
		res, err := solver.Run(q, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: lts: %v\n", err)
			os.Exit(1)
		}
		return resultChecksum(res)
	}
	rep.Rate1ClassicChecksum = runChecksum(false)
	rep.Rate1LTSChecksum = runChecksum(true)
	rep.Rate1Identical = rep.Rate1ClassicChecksum == rep.Rate1LTSChecksum
	fmt.Printf("\nrate-1 LTS vs classic bit-identical: %v\n", rep.Rate1Identical)
	if !rep.Rate1Identical {
		fmt.Fprintf(os.Stderr, "benchtab: lts: rate-1 LTS output diverged from classic (%s != %s)\n",
			rep.Rate1LTSChecksum, rep.Rate1ClassicChecksum)
		os.Exit(1)
	}

	// Mixed-rate accuracy against the classic global-dt reference. The
	// bounds are calibrated against pure time refinement: running the
	// whole (uniform) soft medium at 2x/4x the step — no LTS, no rate
	// boundary — already incurs comparable relative L2 error on these
	// receivers, so the seam interpolation adds little beyond the coarse
	// cluster's inherent larger-step discretization error. See
	// EXPERIMENTS.md for the attribution data.
	rep.AccuracyNote = "tolerances match the solver acceptance test TestLTSMixedRateAccuracy; " +
		"errors are dominated by the coarse cluster's inherent 2x/4x-step discretization error " +
		"(pure time-refinement control runs show comparable relL2 without any rate boundary)"
	accSteps := 192
	ratios := []struct {
		ratio   int
		seisTol float64
		pgvTol  float64
	}{
		{2, 0.25, 0.05},
		{4, 0.50, 0.08},
	}
	if short {
		ratios = ratios[1:] // the coarsest seam is the stress case
	}
	recNames := []string{"rock(8,8,4)", "boundary(16,8,4)", "basin(24,8,4)"}
	fmt.Printf("\n%-8s %-18s %12s %9s %12s %9s %6s\n",
		"ratio", "receiver", "seis_relL2", "tol", "pgv_relerr", "tol", "ok")
	accPass := true
	for _, rc := range ratios {
		q, refOpt := ltsAccuracyOptions(accSteps, rc.ratio, false)
		ref, err := solver.Run(q, refOpt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: lts: %v\n", err)
			os.Exit(1)
		}
		_, ltsOpt := ltsAccuracyOptions(accSteps, rc.ratio, true)
		res, err := solver.Run(q, ltsOpt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: lts: %v\n", err)
			os.Exit(1)
		}
		for r := range ref.Seismograms {
			row := ltsAccuracyRow{
				MaxRateRatio: rc.ratio,
				Receiver:     recNames[r],
				SeisRelL2:    ltsRelL2(res.Seismograms[r], ref.Seismograms[r]),
				SeisTol:      rc.seisTol,
				PGVTol:       rc.pgvTol,
			}
			if ref.PGVH[r] != 0 {
				row.PGVRelErr = math.Abs(res.PGVH[r]-ref.PGVH[r]) / ref.PGVH[r]
			}
			ok := row.SeisRelL2 <= row.SeisTol && row.PGVRelErr <= row.PGVTol
			accPass = accPass && ok
			rep.Accuracy = append(rep.Accuracy, row)
			fmt.Printf("%-8d %-18s %12.4f %9.2f %12.4f %9.2f %6v\n",
				rc.ratio, row.Receiver, row.SeisRelL2, row.SeisTol, row.PGVRelErr, row.PGVTol, ok)
		}
	}
	if !accPass {
		fmt.Fprintf(os.Stderr, "benchtab: lts: mixed-rate accuracy outside documented tolerances\n")
		os.Exit(1)
	}

	// Timing: basin-over-rock, 4 x-ranks, rate-4 basin. Interleaved
	// min-of-reps so allocator and scheduler drift hits both schedules
	// alike. The warm-up is the basin rank's fill time: a box grows four
	// cells a local step — one a base step at rate 4 — and has half of NY or
	// NZ, plus the ghosts, to cross from a source.
	tg := grid.Dims{NX: 96, NY: 64, NZ: 64}
	topo := mpi.NewCart(4, 1, 1)
	steps, warm, reps := 32, 40, 3
	if short {
		tg = grid.Dims{NX: 48, NY: 24, NZ: 24}
		steps, warm, reps = 16, 16, 1
	}
	classicBest, ltsBest := math.Inf(1), math.Inf(1)
	var rates, balCuts, naiveCuts []int
	for r := 0; r < reps; r++ {
		q, opt := ltsTimingOptions(tg, steps, topo, false)
		sec, _, cuts := ltsTimedRun(q, opt, warm)
		if sec < classicBest {
			classicBest = sec
		}
		naiveCuts = cuts
		q, opt = ltsTimingOptions(tg, steps, topo, true)
		sec, rs, cuts := ltsTimedRun(q, opt, warm)
		if sec < ltsBest {
			ltsBest = sec
		}
		rates, balCuts = rs, cuts
	}

	// Analytic plan accounting on the x axis (the only decomposed axis).
	split := tg.NX / 2
	planeRates := make([]int, tg.NX)
	for p := range planeRates {
		if p < split {
			planeRates[p] = 1
		} else {
			planeRates[p] = ltsMaxInt(rates)
		}
	}
	work := 0
	for _, c := range ltsAxisCosts(balCuts, planeRates) {
		work += c
	}
	rep.Plan = ltsPlan{
		Grid:            fmt.Sprintf("%dx%dx%d", tg.NX, tg.NY, tg.NZ),
		SplitPlane:      split,
		Rates:           rates,
		NaiveCuts:       naiveCuts,
		BalancedCuts:    balCuts,
		WorkFactor:      float64(work) / float64(tg.NX),
		NaiveMaxCost:    ltsMaxInt(ltsAxisCosts(naiveCuts, planeRates)),
		BalancedMaxCost: ltsMaxInt(ltsAxisCosts(balCuts, planeRates)),
	}
	fmt.Printf("\nrates %v  naive cuts %v (max cost %d)  balanced cuts %v (max cost %d)  work factor %.3f\n",
		rates, naiveCuts, rep.Plan.NaiveMaxCost, balCuts, rep.Plan.BalancedMaxCost, rep.Plan.WorkFactor)

	speedup := classicBest / ltsBest
	rep.Timing = ltsTiming{
		Grid:           rep.Plan.Grid,
		Topo:           fmt.Sprintf("%dx%dx%d", topo.PX, topo.PY, topo.PZ),
		Steps:          steps,
		Reps:           reps,
		ClassicStepSec: classicBest,
		LTSStepSec:     ltsBest,
		Speedup:        speedup,
		Below1_3x:      speedup < 1.3,
	}
	fmt.Printf("\n%-12s %-8s %14s %14s %9s\n", "grid", "topo", "classic_s/step", "lts_s/step", "speedup")
	fmt.Printf("%-12s %-8s %14.5f %14.5f %8.2fx\n",
		rep.Timing.Grid, rep.Timing.Topo, classicBest, ltsBest, speedup)
	if rep.Timing.Below1_3x {
		fmt.Printf("warning: below_1_3x: measured speedup %.2fx < 1.3x\n", speedup)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: lts: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: lts: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("report written to %s\n", outPath)
}

// resultChecksum hashes the exact bits of every observable a run produces:
// seismograms and the four PGV maps. Equal checksums mean bit-identical
// output.
func resultChecksum(res *solver.Result) string {
	h := fnv.New64a()
	var buf [8]byte
	put32 := func(v float32) {
		b := math.Float32bits(v)
		buf[0], buf[1], buf[2], buf[3] = byte(b), byte(b>>8), byte(b>>16), byte(b>>24)
		h.Write(buf[:4])
	}
	put64 := func(v float64) {
		b := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, s := range res.Seismograms {
		for _, smp := range s {
			put32(smp[0])
			put32(smp[1])
			put32(smp[2])
		}
	}
	for _, m := range [][]float64{res.PGVH, res.PGVX, res.PGVY, res.PGVZ} {
		for _, v := range m {
			put64(v)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

package main

import (
	"encoding/json"
	"fmt"
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

// ttileDepthRun is one serial timed run of the solver at one temporal depth.
type ttileDepthRun struct {
	Depth         int     `json:"depth"`
	StepSec       float64 `json:"step_sec"`          // stepping wall time / steps
	NsPerCellStep float64 `json:"ns_per_cell_step"`  // StepSec / cells
	Speedup       float64 `json:"speedup_vs_depth1"` // depth-1 StepSec / StepSec
	Checksum      string  `json:"checksum"`          // FNV-64a over seismogram + PGV bits
}

// ttileGridRun is the depth sweep on one grid; the checksum of every depth
// must match depth 1 exactly (enforced, the run aborts otherwise).
type ttileGridRun struct {
	Grid         string          `json:"grid"`
	Steps        int             `json:"steps"`
	Depths       []ttileDepthRun `json:"depths"`
	BitIdentical bool            `json:"bit_identical"`
	BestSpeedup  float64         `json:"best_speedup"`
}

// ttileMsgRow is the halo-traffic accounting of one (topology, subgrid,
// depth) cell, walked off the exchange schedule, summed across ranks and
// amortized per step: depth 1 from the classic two-phase exchange
// (solver.HaloStats), depth > 1 from the deep super-step exchange
// (solver.TemporalHaloStats, divided by the depth).
type ttileMsgRow struct {
	Topo          string  `json:"topo"`
	Subgrid       string  `json:"subgrid"`
	Depth         int     `json:"depth"`
	MsgsPerStep   float64 `json:"msgs_per_step"`
	FloatsPerStep float64 `json:"floats_per_step"`
	MsgReduction  float64 `json:"msg_reduction_vs_depth1"`
}

// ttileDuelRow is one measured round of the temporal halo duel
// (solver.RunTemporalHaloDuel): the classic two-exchanges-per-step
// protocol against the deep super-step exchange at depth T, in one world,
// on a strong-scaled grid. AlphaUs is the emulated per-message sender
// overhead armed via mpi.World.SetLinkLatency — 0 is the raw in-process
// transport, whose per-message cost (~0.1µs) is two orders of magnitude
// below a real interconnect, so the α=0 rows show the deep exchange
// losing on bytes alone and the α>0 rows show where it wins: the
// per-message term, which is what running one exchange per T steps
// attacks. The ns/cell/step columns amortize the per-step exchange wall
// time over the global grid.
type ttileDuelRow struct {
	Grid                 string  `json:"grid"` // global grid = topo × subgrid
	Topo                 string  `json:"topo"`
	Subgrid              string  `json:"subgrid"`
	Depth                int     `json:"depth"`
	AlphaUs              float64 `json:"alpha_us"`
	ClassicUsPerStep     float64 `json:"classic_us_per_step"`
	DeepUsPerStep        float64 `json:"deep_us_per_step"`
	ClassicNsPerCellStep float64 `json:"classic_ns_per_cell_step"`
	DeepNsPerCellStep    float64 `json:"deep_ns_per_cell_step"`
	Speedup              float64 `json:"speedup"` // classic / deep
}

type ttileReport struct {
	GeneratedBy string `json:"generated_by"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	Warning     string `json:"warning,omitempty"`
	// MultiRankChecksum/SerialChecksum: one distributed depth-2
	// run against the serial depth-1 reference on the same global grid.
	SerialChecksum    string         `json:"serial_checksum"`
	MultiRankChecksum string         `json:"multi_rank_checksum"`
	Grids             []ttileGridRun `json:"grids"`
	Messages          []ttileMsgRow  `json:"messages"`
	// AlphaNote documents the emulated per-message overhead of the duel
	// rows; DuelBestSpeedup is the best α>0 depth≥2 speedup (enforced
	// ≥1.15 in full mode).
	AlphaNote       string         `json:"alpha_note,omitempty"`
	HaloDuel        []ttileDuelRow `json:"halo_duel,omitempty"`
	DuelBestSpeedup float64        `json:"duel_best_speedup,omitempty"`
}

// ttileOptions is the common scenario of the depth sweep: the full
// production feature set the tiled engine covers (sponge, free surface,
// attenuation, receivers, PGV), so checksum equality certifies the whole
// observable surface.
func ttileOptions(g grid.Dims, steps, depth int, topo mpi.Cart) (cvm.Querier, solver.Options) {
	q := cvm.SoCal(float64(g.NX)*100, float64(g.NY)*100, float64(g.NZ)*100, 500)
	src := source.PointSource{
		GI: g.NX / 2, GJ: g.NY / 2, GK: g.NZ / 2, M0: 1e15,
		Tensor: source.Explosion, STF: source.GaussianPulse(0.06, 0.02),
	}
	return q, solver.Options{
		Global: g, H: 100, Steps: steps, Topo: topo,
		Comm: solver.Asynchronous, Threads: 1,
		Variant: fd.Fused, Blocking: fd.DefaultBlocking, TemporalDepth: depth,
		ABC: solver.SpongeABC, SpongeWidth: 4,
		FreeSurface: true, Attenuation: true,
		Sources:   []source.SampledSource{src.Sample(0.002, 200)},
		Receivers: [][3]int{{g.NX / 2, g.NY / 2, 0}, {2, 2, 0}},
		TrackPGV:  true,
	}
}

// ttileTimedRun executes one serial run through the Stepper API so the
// timer brackets only the stepping loop (setup — CVM sampling, medium
// precomputation — is excluded; it is identical across depths anyway).
func ttileTimedRun(g grid.Dims, steps, depth int) (float64, *solver.Result) {
	q, opt := ttileOptions(g, steps, depth, mpi.NewCart(1, 1, 1))
	dc, opt, err := solver.Prepare(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: ttile: %v\n", err)
		os.Exit(1)
	}
	var sec float64
	var res *solver.Result
	w := mpi.NewWorld(1)
	w.Run(func(c *mpi.Comm) {
		st, err := solver.NewStepper(c, q, dc, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: ttile: %v\n", err)
			os.Exit(1)
		}
		defer st.Close()
		t0 := time.Now()
		for !st.Done() {
			st.Step()
		}
		sec = time.Since(t0).Seconds()
		res, err = st.Finish()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: ttile: %v\n", err)
			os.Exit(1)
		}
	})
	return sec / float64(steps), res
}

// ttileRunChecksum runs the scenario through solver.Run (any topology) and
// hashes its observables.
func ttileRunChecksum(g grid.Dims, steps, depth int, topo mpi.Cart) string {
	q, opt := ttileOptions(g, steps, depth, topo)
	res, err := solver.Run(q, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: ttile: %v\n", err)
		os.Exit(1)
	}
	return kernelChecksum(res)
}

// ttileTopoStats sums the per-step halo traffic across all ranks of a
// topology at the given temporal depth.
func ttileTopoStats(topo mpi.Cart, sub grid.Dims, depth int) (msgs, floats float64) {
	for r := 0; r < topo.Size(); r++ {
		var mask [3][2]bool
		for ax := 0; ax < 3; ax++ {
			mask[ax][0] = topo.Neighbor(r, ax, -1) >= 0
			mask[ax][1] = topo.Neighbor(r, ax, +1) >= 0
		}
		if depth <= 1 {
			st := solver.HaloStats(sub, mask, solver.Asynchronous)
			msgs += float64(st.Msgs())
			floats += float64(st.Floats)
			continue
		}
		st := solver.TemporalHaloStats(sub, mask, depth, true, true)
		msgs += float64(st.Msgs()) / float64(depth)
		floats += float64(st.Floats) / float64(depth)
	}
	return
}

// ttile benchmarks the time-tiled execution engine: ns/cell/step across
// temporal depths {1, 2, 4} on several grids with exact output checksums
// proving bit identity, a distributed depth-2 run checked against the
// serial reference, the per-step message accounting showing the 2T-fold
// reduction a super-step buys, and the
// temporal halo duel measuring that reduction as wall time under emulated
// per-message interconnect overhead (the ≥1.15× acceptance gate). Writes
// BENCH_6.json (or outPath).
func ttile(outPath string, short bool) {
	header("Temporal tiling: steps per halo exchange")
	rep := ttileReport{
		GeneratedBy: "cmd/benchtab -exp ttile",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
	}
	fmt.Printf("GOMAXPROCS=%d NumCPU=%d\n", rep.GOMAXPROCS, rep.NumCPU)
	if rep.GOMAXPROCS == 1 {
		rep.Warning = "GOMAXPROCS=1: timings measure serialized goroutine execution, " +
			"not hardware parallelism; the depth comparison is still serial-vs-serial and fair"
		fmt.Printf("WARNING: %s\n", rep.Warning)
	}

	// Grids span in-cache (the first) through DRAM-resident (the rest):
	// the 15 wavefields of 96x96x64 cells are ~35 MB, past typical LLCs,
	// which is where trading halo width for sweep locality pays.
	grids := []grid.Dims{
		{NX: 48, NY: 48, NZ: 32},
		{NX: 96, NY: 96, NZ: 64},
		{NX: 128, NY: 96, NZ: 80},
	}
	steps, reps := 16, 3
	depths := []int{1, 2, 4}
	if short {
		grids = []grid.Dims{{NX: 24, NY: 24, NZ: 16}}
		steps, reps = 10, 1 // 10 steps: exercises the partial super-step
	}

	fmt.Printf("\n%-12s %6s %14s %16s %9s %14s\n",
		"grid", "depth", "step_sec", "ns/cell/step", "speedup", "bit-identical")
	for _, g := range grids {
		run := ttileGridRun{Grid: fmt.Sprintf("%dx%dx%d", g.NX, g.NY, g.NZ), Steps: steps}
		cells := float64(g.Cells())

		// Interleaved min-of-reps: each rep cycles through all depths, and
		// the minimum per depth is reported, so scheduler and allocator
		// drift between runs hits every depth alike instead of biasing the
		// ratio.
		best := make(map[int]float64, len(depths))
		sums := make(map[int]string, len(depths))
		for r := 0; r < reps; r++ {
			for _, depth := range depths {
				sec, res := ttileTimedRun(g, steps, depth)
				if old, ok := best[depth]; !ok || sec < old {
					best[depth] = sec
				}
				sums[depth] = kernelChecksum(res)
			}
		}

		var ref ttileDepthRun
		for _, depth := range depths {
			row := ttileDepthRun{
				Depth:         depth,
				StepSec:       best[depth],
				NsPerCellStep: best[depth] * 1e9 / cells,
				Checksum:      sums[depth],
			}
			if depth == 1 {
				ref = row
				row.Speedup = 1
			} else {
				row.Speedup = ref.StepSec / row.StepSec
			}
			run.Depths = append(run.Depths, row)
			if row.Speedup > run.BestSpeedup && depth > 1 {
				run.BestSpeedup = row.Speedup
			}
			identical := row.Checksum == ref.Checksum
			fmt.Printf("%-12s %6d %14.6f %16.2f %8.2fx %14v\n",
				run.Grid, depth, row.StepSec, row.NsPerCellStep, row.Speedup, identical)
			if !identical {
				fmt.Fprintf(os.Stderr,
					"benchtab: ttile: depth-%d output diverged from depth-1 on %s (%s != %s)\n",
					depth, run.Grid, row.Checksum, ref.Checksum)
				os.Exit(1)
			}
		}
		run.BitIdentical = true
		rep.Grids = append(rep.Grids, run)
	}

	// One distributed super-step run against the serial classic reference:
	// same global grid, 2x2x1 ranks, depth 2.
	mg := grids[0]
	rep.SerialChecksum = ttileRunChecksum(mg, steps, 1, mpi.NewCart(1, 1, 1))
	rep.MultiRankChecksum = ttileRunChecksum(mg, steps, 2, mpi.NewCart(2, 2, 1))
	fmt.Printf("\ndistributed 2x2x1 depth-2 vs serial depth-1 on %s: %v\n",
		rep.Grids[0].Grid, rep.MultiRankChecksum == rep.SerialChecksum)
	if rep.MultiRankChecksum != rep.SerialChecksum {
		fmt.Fprintf(os.Stderr, "benchtab: ttile: distributed depth-2 output diverged from serial depth-1\n")
		os.Exit(1)
	}

	// Per-step message accounting: the deep exchange runs once per T
	// steps, so messages fall from 2 per neighbor per step to 1/T.
	topo := mpi.NewCart(2, 2, 1)
	sub := grid.Dims{NX: grids[0].NX / 2, NY: grids[0].NY / 2, NZ: grids[0].NZ}
	fmt.Printf("\n%-8s %-10s %6s %14s %16s %12s\n",
		"topo", "subgrid", "depth", "msgs/step", "floats/step", "reduction")
	var base float64
	for _, depth := range depths {
		msgs, floats := ttileTopoStats(topo, sub, depth)
		row := ttileMsgRow{
			Topo:    fmt.Sprintf("%dx%dx%d", topo.PX, topo.PY, topo.PZ),
			Subgrid: sub.String(), Depth: depth,
			MsgsPerStep: msgs, FloatsPerStep: floats,
		}
		if depth == 1 {
			base = msgs
			row.MsgReduction = 1
		} else {
			row.MsgReduction = base / msgs
		}
		rep.Messages = append(rep.Messages, row)
		fmt.Printf("%-8s %-10s %6d %14.1f %16.0f %11.1fx\n",
			row.Topo, row.Subgrid, row.Depth,
			row.MsgsPerStep, row.FloatsPerStep, row.MsgReduction)
	}

	// Temporal halo duel on strong-scaled subgrids, with and without
	// emulated per-message interconnect overhead. The raw in-process
	// transport has α ≈ 0.1µs and memcpy-class bandwidth, a regime no
	// production interconnect occupies; the α=8µs rows match the Jaguar-
	// class Alpha of the perfmodel machine descriptions and are where the
	// super-step exchange's 2T-fold message reduction becomes a measured
	// win.
	rep.AlphaNote = "alpha_us > 0 rows run under mpi.World.SetLinkLatency: every transmission " +
		"charges the sender that fixed per-message overhead (busy-wait, no checksum side " +
		"effects); 8us matches the Jaguar-class Alpha of internal/perfmodel machine descriptions. " +
		"alpha_us = 0 is the raw in-process transport (alpha ~ 0.1us), which no production " +
		"interconnect resembles."
	duelTopo := mpi.NewCart(2, 2, 2)
	duelSubs := []grid.Dims{{NX: 16, NY: 16, NZ: 16}, {NX: 32, NY: 32, NZ: 32}}
	duelAlphas := []time.Duration{0, 8 * time.Microsecond}
	duelSteps := 120
	duelDepths := []int{2, 4}
	if short {
		duelSubs = duelSubs[:1]
		duelAlphas = duelAlphas[1:]
		duelSteps = 40
		duelDepths = []int{2}
	}
	fmt.Printf("\n%-10s %-10s %6s %9s %13s %13s %9s\n",
		"grid", "subgrid", "depth", "alpha_us", "classic_us", "deep_us", "speedup")
	for _, sub := range duelSubs {
		global := grid.Dims{NX: sub.NX * duelTopo.PX, NY: sub.NY * duelTopo.PY, NZ: sub.NZ * duelTopo.PZ}
		cells := float64(global.Cells())
		for _, alpha := range duelAlphas {
			for _, depth := range duelDepths {
				cfg := solver.HaloBenchConfig{
					Topo: duelTopo, Local: sub, Model: solver.Asynchronous,
					Threads: 1, Steps: duelSteps, EmulatedAlpha: alpha,
				}
				classic, deep := solver.RunTemporalHaloDuel(cfg, depth)
				row := ttileDuelRow{
					Grid:                 fmt.Sprintf("%dx%dx%d", global.NX, global.NY, global.NZ),
					Topo:                 fmt.Sprintf("%dx%dx%d", duelTopo.PX, duelTopo.PY, duelTopo.PZ),
					Subgrid:              sub.String(),
					Depth:                depth,
					AlphaUs:              alpha.Seconds() * 1e6,
					ClassicUsPerStep:     classic * 1e6,
					DeepUsPerStep:        deep * 1e6,
					ClassicNsPerCellStep: classic * 1e9 / cells,
					DeepNsPerCellStep:    deep * 1e9 / cells,
					Speedup:              classic / deep,
				}
				rep.HaloDuel = append(rep.HaloDuel, row)
				if row.AlphaUs > 0 && row.Speedup > rep.DuelBestSpeedup {
					rep.DuelBestSpeedup = row.Speedup
				}
				fmt.Printf("%-10s %-10s %6d %9.1f %13.1f %13.1f %8.2fx\n",
					row.Grid, row.Subgrid, row.Depth, row.AlphaUs,
					row.ClassicUsPerStep, row.DeepUsPerStep, row.Speedup)
			}
		}
	}
	if !short && rep.DuelBestSpeedup < 1.15 {
		fmt.Fprintf(os.Stderr,
			"benchtab: ttile: best emulated-alpha duel speedup %.2fx < 1.15x\n", rep.DuelBestSpeedup)
		os.Exit(1)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: ttile: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: ttile: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("report written to %s\n", outPath)
}

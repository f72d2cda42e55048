package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core/solver"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/ft"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/pfs"
	"repro/internal/telemetry"
)

// ftRun is one (comm model, checkpoint interval) cell of the recovery-cost
// sweep: a chaos run with injected rank crashes next to the expected cost
// from the checkpoint/restart model behind Young's formula.
type ftRun struct {
	Model            string  `json:"comm_model"`
	Interval         int     `json:"checkpoint_interval_steps"`
	Faults           int     `json:"injected_faults"`
	Recoveries       int     `json:"recoveries"`
	Rebuilds         int     `json:"rebuilds"`
	RestartSteps     []int   `json:"restart_steps"`
	Checkpoints      int     `json:"checkpoints"`
	ReplayedSteps    int     `json:"replayed_steps"`
	ExpectedReplayed float64 `json:"expected_replayed_steps"` // faults * interval/2
	CheckpointSec    float64 `json:"checkpoint_sec"`
	RecoverySec      float64 `json:"recovery_sec"`
	WallSec          float64 `json:"wall_sec"`
	OverheadFrac     float64 `json:"overhead_frac"` // wall vs failure-free wall
	BitIdentical     bool    `json:"bit_identical"` // vs failure-free run
}

type ftReport struct {
	GeneratedBy   string  `json:"generated_by"`
	GOOS          string  `json:"goos"`
	GOARCH        string  `json:"goarch"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	NumCPU        int     `json:"num_cpu"`
	Global        string  `json:"global"`
	Ranks         int     `json:"ranks"`
	Steps         int     `json:"steps"`
	FaultsPerRun  int     `json:"faults_per_run"`
	MTBFSteps     float64 `json:"mtbf_steps"`
	CkptCostSteps float64 `json:"checkpoint_cost_steps"`
	YoungInterval int     `json:"young_optimal_interval_steps"`
	Runs          []ftRun `json:"runs"`
}

// ftOptions is the chaos-sweep scenario: the soak fixture of the ft
// package scaled up in steps so several checkpoint intervals fit.
func ftOptions(topo mpi.Cart, comm solver.CommModel, steps int) solver.Options {
	g := grid.Dims{NX: 20, NY: 20, NZ: 14}
	src := source.PointSource{
		GI: 10, GJ: 10, GK: 7, M0: 1e15,
		Tensor: source.Explosion, STF: source.GaussianPulse(0.08, 0.02),
	}
	return solver.Options{
		Global: g, H: 100, Steps: steps, Topo: topo, Comm: comm,
		ABC: solver.SpongeABC, SpongeWidth: 4,
		FreeSurface: true, Attenuation: true,
		Sources:   []source.SampledSource{src.Sample(0.002, 200)},
		Receivers: [][3]int{{5, 10, 7}, {15, 10, 7}, {10, 10, 2}},
		TrackPGV:  true,
		Telemetry: &telemetry.Options{},
	}
}

func ftFS() *pfs.FS {
	return pfs.New(pfs.Config{OSTs: 4, OSTBandwidth: 1e8, MDSLatency: 1e-4, MDSConcurrent: 8})
}

func sameFTResult(ref, got *solver.Result) bool {
	return got != nil && reflect.DeepEqual(ref.Seismograms, got.Seismograms) &&
		reflect.DeepEqual([][]float64{ref.PGVH, ref.PGVX, ref.PGVY, ref.PGVZ},
			[][]float64{got.PGVH, got.PGVX, got.PGVY, got.PGVZ})
}

// ftExp measures the recovery cost of coordinated checkpoint/restart as a
// function of checkpoint interval, per comm model, under two injected
// whole-rank crashes, and compares the measured lost work against the
// expected interval/2 per fault that Young's formula minimizes. Writes
// BENCH_5.json (or outPath).
func ftExp(outPath string, short bool) {
	header("FT: recovery cost vs checkpoint interval under injected rank crashes")
	topo := mpi.NewCart(2, 1, 1)
	steps := 120
	intervals := []int{4, 8, 16, 32}
	if short {
		steps = 48
		intervals = []int{8, 16}
	}
	rep := ftReport{
		GeneratedBy: "cmd/benchtab -exp ft",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Ranks:       topo.Size(),
		Steps:       steps,
	}

	models := []struct {
		name  string
		model solver.CommModel
	}{
		{"async", solver.Asynchronous},
		{"async-reduced", solver.AsyncReduced},
	}

	fmt.Printf("%-14s %9s %7s %6s %9s %10s %10s %9s %5s\n",
		"model", "interval", "faults", "recov", "replayed", "expected", "ckpt_s", "recov_s", "bitid")
	for _, m := range models {
		opt := ftOptions(topo, m.model, steps)
		rep.Global = fmt.Sprintf("%dx%dx%d", opt.Global.NX, opt.Global.NY, opt.Global.NZ)

		// Failure-free reference for bit-identity and baseline wall time.
		t0 := time.Now()
		ref, err := solver.Run(cvm.SoCal(2000, 2000, 1400, 400), opt)
		if err != nil {
			panic(err)
		}
		refWall := time.Since(t0).Seconds()

		// Pilot clean harness run: counts the per-rank send budget so the
		// two crash points can be placed deterministically mid-run.
		_, pilot, err := ft.RunWorld(ft.WorldOptions{
			Solver: opt, Query: cvm.SoCal(2000, 2000, 1400, 400),
			FS: ftFS(), Dir: "ckpt", Interval: 8,
			Chaos: &mpi.ChaosPlan{},
		})
		if err != nil {
			panic(err)
		}
		perRankSends := float64(pilot.Chaos.Delivered) / float64(topo.Size())

		for _, k := range intervals {
			chaos := &mpi.ChaosPlan{
				CrashAtSend: map[int]uint64{
					0: uint64(perRankSends * 0.45),
					1: uint64(perRankSends * 0.80),
				},
			}
			t1 := time.Now()
			res, stats, err := ft.RunWorld(ft.WorldOptions{
				Solver: opt, Query: cvm.SoCal(2000, 2000, 1400, 400),
				FS: ftFS(), Dir: "ckpt", Interval: k, Chaos: chaos,
			})
			if err != nil {
				panic(fmt.Sprintf("ft run (model %s interval %d): %v", m.name, k, err))
			}
			wall := time.Since(t1).Seconds()
			faults := int(stats.Chaos.Crashes)
			run := ftRun{
				Model: m.name, Interval: k,
				Faults:       faults,
				Recoveries:   stats.Recoveries,
				Rebuilds:     stats.Rebuilds,
				RestartSteps: stats.RestartSteps,
				Checkpoints:  stats.Checkpoints,

				ReplayedSteps:    stats.ReplayedSteps,
				ExpectedReplayed: float64(faults) * float64(k) / 2,
				CheckpointSec:    res.Telemetry.Stat(telemetry.Checkpoint).TotalSec,
				RecoverySec:      res.Telemetry.Stat(telemetry.Recovery).TotalSec,
				WallSec:          wall,
				OverheadFrac:     (wall - refWall) / refWall,
				BitIdentical:     sameFTResult(ref, res),
			}
			rep.Runs = append(rep.Runs, run)
			fmt.Printf("%-14s %9d %7d %6d %9d %10.1f %10.3g %9.3g %5v\n",
				m.name, k, run.Faults, run.Recoveries, run.ReplayedSteps,
				run.ExpectedReplayed, run.CheckpointSec, run.RecoverySec, run.BitIdentical)

			// Young's inputs, priced from the async sweep's middle cell:
			// checkpoint cost in step units and the injected MTBF.
			if m.model == solver.Asynchronous && k == 8 && stats.Checkpoints > 0 && faults > 0 {
				stepSec := refWall / float64(steps)
				saveSec := run.CheckpointSec / float64(stats.Checkpoints)
				rep.CkptCostSteps = saveSec / stepSec
				rep.MTBFSteps = float64(steps) / float64(faults)
				rep.FaultsPerRun = faults
				rep.YoungInterval = perfmodel.OptimalInterval(rep.CkptCostSteps, rep.MTBFSteps)
			}
		}
	}
	fmt.Printf("\nYoung: checkpoint cost %.2f steps, MTBF %.0f steps -> optimal interval %d steps\n",
		rep.CkptCostSteps, rep.MTBFSteps, rep.YoungInterval)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		panic(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: write %s: %v\n", outPath, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d runs)\n", outPath, len(rep.Runs))
}

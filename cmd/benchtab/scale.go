package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
)

// scaleWorldRow is one rank count of the runtime-scaling sweep: world
// construction cost, steady-state memory, barrier latency, Allreduce
// latency, and a ring halo exchange throughput.
type scaleWorldRow struct {
	Ranks        int     `json:"ranks"`
	NewWorldSec  float64 `json:"new_world_sec"`
	PerRankBytes float64 `json:"per_rank_bytes"`
	// Per-round wall time of 1 barrier across all ranks. On one core any
	// barrier is Omega(P) aggregate work, so the honest per-rank view is
	// the round divided by P. The sweep gates the tree's per-rank cost
	// staying bounded across a 160x rank growth (sub-linear latency). The
	// committed BENCH_8.json also holds the centralized convoy barrier the
	// tree replaced, measured before that barrier was deleted.
	TreeBarrierRoundSec float64 `json:"tree_barrier_round_sec"`
	TreePerRankNs       float64 `json:"tree_per_rank_ns"`
	// Analytic critical-path hops of the combine+release tree:
	// 2*ceil(log2 P).
	TreeDepthHops   int     `json:"tree_depth_hops"`
	AllreduceSec    float64 `json:"allreduce_sec"`
	HaloStepsPerSec float64 `json:"halo_steps_per_sec"`
}

// scaleHybrid is the hybrid model-execution section: measured constants,
// the extrapolated weak/strong curves, and the P=64 projection-vs-real
// parity check that anchors them.
type scaleHybrid struct {
	Constants       perfmodel.MeasuredConstants `json:"constants"`
	Weak            []hybridPoint               `json:"weak"`
	Strong          []perfmodel.ScalingPoint    `json:"strong"`
	ParityRanks     int                         `json:"parity_ranks"`
	ParityProjected float64                     `json:"parity_projected_step_sec"`
	ParityMeasured  float64                     `json:"parity_measured_step_sec"`
	ParityRelErr    float64                     `json:"parity_rel_err"`
	ParityTol       float64                     `json:"parity_tol"`
	ParityAttempts  int                         `json:"parity_attempts"`
}

type scaleReport struct {
	GeneratedBy string          `json:"generated_by"`
	GOOS        string          `json:"goos"`
	GOARCH      string          `json:"goarch"`
	GOMAXPROCS  int             `json:"gomaxprocs"`
	NumCPU      int             `json:"num_cpu"`
	Warning     string          `json:"warning,omitempty"`
	Short       bool            `json:"short"`
	Worlds      []scaleWorldRow `json:"worlds"`
	Hybrid      scaleHybrid     `json:"hybrid"`
}

// scaleHeap returns the live heap after a full GC.
func scaleHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// scaleWorldSweep measures one rank count.
func scaleWorldSweep(P, rounds, reps, haloSteps int) scaleWorldRow {
	row := scaleWorldRow{
		Ranks:         P,
		TreeDepthHops: 2 * int(math.Ceil(math.Log2(float64(P)))),
	}

	// World construction: the lazy-inbox fix makes this one slice of
	// atomic pointers, not P mutex+cond allocations.
	t0 := time.Now()
	for i := 0; i < 4; i++ {
		w := mpi.NewWorld(P)
		runtime.KeepAlive(w)
	}
	row.NewWorldSec = time.Since(t0).Seconds() / 4

	// Steady-state memory: heap attributable to one world after it has
	// exercised barriers, an Allreduce, and a ring exchange (inboxes and
	// barrier tree faulted in, pool warm), measured after Run returns so
	// goroutine stacks are gone.
	base := scaleHeap()
	w := mpi.NewWorld(P)
	w.Run(func(c *mpi.Comm) {
		c.Barrier()
		c.Allreduce([]float64{float64(c.Rank())}, mpi.Max)
		next, prev := (c.Rank()+1)%P, (c.Rank()-1+P)%P
		buf := mpi.GetBuffer(16)
		c.SendOwned(next, 1, buf)
		got, _ := c.MustRecvTake(prev, 1)
		mpi.PutBuffer(got)
	})
	row.PerRankBytes = float64(scaleHeap()-base) / float64(P)

	// Barrier and Allreduce rounds on the warm world. Host noise on a
	// shared core is episodic, so reps interleave the barrier and the
	// Allreduce — an episode inflates one rep of each alike — and the
	// minimum per-round time is kept. A warmup barrier
	// precedes each timed loop so the world's goroutine spawn (O(P),
	// paid once per Run) stays out of the round times.
	timed := func(warm, body func(c *mpi.Comm)) float64 {
		var sec float64
		w.Run(func(c *mpi.Comm) {
			warm(c)
			if c.Rank() == 0 {
				t0 = time.Now()
			}
			for i := 0; i < rounds; i++ {
				body(c)
			}
			if c.Rank() == 0 {
				sec = time.Since(t0).Seconds() / float64(rounds)
			}
		})
		return sec
	}
	tree, allred := math.Inf(1), math.Inf(1)
	for rep := 0; rep < reps; rep++ {
		tree = math.Min(tree, timed(
			func(c *mpi.Comm) { c.Barrier() },
			func(c *mpi.Comm) { c.Barrier() }))
		allred = math.Min(allred, timed(
			func(c *mpi.Comm) { c.Barrier() },
			func(c *mpi.Comm) { c.Allreduce([]float64{float64(c.Rank()), 0}, mpi.Max) }))
	}
	row.TreeBarrierRoundSec = tree
	row.AllreduceSec = allred
	row.TreePerRankNs = row.TreeBarrierRoundSec / float64(P) * 1e9

	// Ring halo throughput: every rank lends a pooled buffer to its
	// successor and takes one from its predecessor (the zero-copy path),
	// with a barrier per step for a solver-like cadence.
	w.Run(func(c *mpi.Comm) {
		next, prev := (c.Rank()+1)%P, (c.Rank()-1+P)%P
		c.Barrier()
		if c.Rank() == 0 {
			t0 = time.Now()
		}
		for s := 0; s < haloSteps; s++ {
			buf := mpi.GetBuffer(16)
			c.SendOwned(next, s, buf)
			got, _ := c.MustRecvTake(prev, s)
			mpi.PutBuffer(got)
			c.Barrier()
		}
		if c.Rank() == 0 {
			row.HaloStepsPerSec = float64(haloSteps) / time.Since(t0).Seconds()
		}
	})
	return row
}

// scale benchmarks the 10k-rank runtime and the hybrid model-execution
// scaling mode: per-rank memory and barrier latency across P in {64,
// 512, 4096, 10240}, Allreduce latency, ring
// halo throughput, and the hybrid weak/strong curves with the P=64
// projection-vs-real parity gate. Gates are enforced in full mode only;
// -short runs a reduced sweep for CI smoke. Writes BENCH_8.json (or
// outPath).
func scale(outPath string, short bool) {
	header("Scale: 10k-rank runtime + hybrid model-execution scaling")
	rep := scaleReport{
		GeneratedBy: "cmd/benchtab -exp scale",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Short:       short,
	}
	fmt.Printf("GOMAXPROCS=%d NumCPU=%d\n", rep.GOMAXPROCS, rep.NumCPU)
	if rep.GOMAXPROCS == 1 {
		rep.Warning = "GOMAXPROCS=1: rank goroutines serialize, so barrier rounds measure aggregate " +
			"work, not parallel latency; the per-rank normalization remains fair, and the hybrid " +
			"curves price a modeled cluster, not this host"
		fmt.Printf("WARNING: %s\n", rep.Warning)
	}

	ranks := []int{64, 512, 4096, 10240}
	rounds, reps, haloSteps := 10, 3, 30
	if short {
		rounds, reps, haloSteps = 5, 2, 8
	}
	fmt.Printf("\n%-7s %12s %12s %14s %12s %12s %12s\n",
		"ranks", "newworld_us", "B/rank", "tree_us/rnd",
		"tree_ns/rk", "allred_us", "halo_stp/s")
	for _, P := range ranks {
		row := scaleWorldSweep(P, rounds, reps, haloSteps)
		rep.Worlds = append(rep.Worlds, row)
		fmt.Printf("%-7d %12.1f %12.0f %14.1f %12.0f %12.1f %12.1f\n",
			P, row.NewWorldSec*1e6, row.PerRankBytes,
			row.TreeBarrierRoundSec*1e6, row.TreePerRankNs,
			row.AllreduceSec*1e6, row.HaloStepsPerSec)
	}

	// Hybrid model-execution scaling: measure constants on sampled real
	// executions, extrapolate the weak/strong curves, and anchor them
	// with the P=64 projection-vs-real parity check.
	cfg := hybridConfig{
		PerRank:     grid.Dims{NX: 10, NY: 10, NZ: 10},
		SampleRanks: 8,
		Steps:       10,
		Reps:        3,
		Ranks:       ranks,
	}
	if short {
		cfg.Reps = 2
	}
	g := cfg.PerRank
	q := cvm.SoCal(float64(g.NX)*100*8, float64(g.NY)*100*8, float64(g.NZ)*100*4, 500)

	rep.Hybrid.ParityRanks = 64
	rep.Hybrid.ParityTol = 0.15
	// Host noise on a shared core is episodic, so the full-mode gate
	// retries: a biased projection fails every attempt, a slow episode
	// at most one or two. Short mode records a single attempt ungated.
	attempts := 4
	if short {
		attempts = 1
	}
	var hs *hybridScaling
	for attempt := 1; attempt <= attempts; attempt++ {
		var err error
		hs, err = hybridRun(q, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: scale: %v\n", err)
			os.Exit(1)
		}
		var proj float64
		for _, pt := range hs.Weak {
			if pt.Ranks == rep.Hybrid.ParityRanks {
				proj = pt.HostProjStepSec
			}
		}
		measured, err := runFullWeakPoint(q, cfg, rep.Hybrid.ParityRanks)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: scale: %v\n", err)
			os.Exit(1)
		}
		rep.Hybrid.ParityProjected = proj
		rep.Hybrid.ParityMeasured = measured
		rep.Hybrid.ParityRelErr = math.Abs(proj-measured) / measured
		rep.Hybrid.ParityAttempts = attempt
		fmt.Printf("\nparity attempt %d: P=%d projected %.4g s/step, measured %.4g s/step, rel err %.1f%%\n",
			attempt, rep.Hybrid.ParityRanks, proj, measured, 100*rep.Hybrid.ParityRelErr)
		if rep.Hybrid.ParityRelErr <= rep.Hybrid.ParityTol {
			break
		}
	}
	rep.Hybrid.Constants = hs.Constants
	rep.Hybrid.Weak = hs.Weak
	rep.Hybrid.Strong = hs.Strong

	fmt.Printf("\nhybrid weak scaling (per-rank %dx%dx%d, %d sampled ranks execute for real):\n",
		g.NX, g.NY, g.NZ, cfg.SampleRanks)
	fmt.Printf("%-7s %-12s %14s %10s %10s %16s\n",
		"ranks", "topo", "virt_s/step", "eff", "Tflops", "hostproj_s/step")
	for _, pt := range hs.Weak {
		fmt.Printf("%-7d %-12s %14.4g %10.3f %10.3f %16.4g\n",
			pt.Ranks, fmt.Sprintf("%dx%dx%d", pt.Topo[0], pt.Topo[1], pt.Topo[2]),
			pt.StepSec, pt.Efficiency, pt.Tflops, pt.HostProjStepSec)
	}
	fmt.Printf("\nhybrid strong scaling (global %v cells fixed):\n", hs.Weak[len(hs.Weak)-1].Global)
	fmt.Printf("%-7s %14s %10s %10s\n", "ranks", "s/step", "speedup", "eff")
	for _, sp := range hs.Strong {
		fmt.Printf("%-7d %14.4g %10.1f %10.3f\n", sp.Cores, sp.StepTime, sp.Speedup, sp.Efficiency)
	}

	// Full-mode gates.
	if !short {
		fail := func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "benchtab: scale: "+format+"\n", args...)
			os.Exit(1)
		}
		var r64, r10k scaleWorldRow
		for _, row := range rep.Worlds {
			if row.PerRankBytes >= 10*1024 {
				fail("P=%d steady-state %.0f B/rank >= 10 KB", row.Ranks, row.PerRankBytes)
			}
			if row.Ranks == 64 {
				r64 = row
			}
			if row.Ranks == 10240 {
				r10k = row
			}
		}
		// Sub-linear latency: the tree's per-rank barrier cost must stay
		// bounded (within a scheduler-pressure factor) as P grows 160x —
		// i.e. the round is O(P polylog P) aggregate, not O(P^2). A
		// centralized barrier that rescanned waiters per arrival would
		// blow through this immediately.
		if r10k.TreePerRankNs > 8*r64.TreePerRankNs {
			fail("tree per-rank barrier cost grew %.1fx from P=64 to P=10240 (want bounded)",
				r10k.TreePerRankNs/r64.TreePerRankNs)
		}
		if r10k.HaloStepsPerSec < 5 {
			fail("P=10240 ring halo %.1f steps/s < 5", r10k.HaloStepsPerSec)
		}
		if rep.Hybrid.ParityRelErr > rep.Hybrid.ParityTol {
			fail("hybrid parity rel err %.1f%% > %.0f%% after %d attempts",
				100*rep.Hybrid.ParityRelErr, 100*rep.Hybrid.ParityTol, rep.Hybrid.ParityAttempts)
		}
		fmt.Printf("\nall scale gates passed\n")
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: scale: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: scale: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("report written to %s\n", outPath)
}

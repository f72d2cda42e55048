package solver

// What only the benchmark reaches, kept until it stops calling it:
//
//	bench/solve.go:275   solver.PlanLTS(q, redriveOptions(s))
//	bench/solve.go:318   st.Close()
//	bench/solve.go:332   countDenormals(st.State())
//	bench/probes.go:281  solver.RunHaloExchangeBench(solver.HaloBenchConfig{...})
//
// The fields Options.LTS, TemporalDepth and Threads and
// LTSOptions.WorkBalance are bench's too; they stay in solver.go, marked.

import (
	"time"

	"repro/internal/core/fd"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/mpi"
)

// PlanLTS planned the rate clusters of multi-rate local time stepping, which
// is gone. It returns opt unchanged.
func PlanLTS(_ cvm.Querier, opt Options) (Options, error) { return opt, nil }

// State exposes the rank's wavefield state.
func (s *Stepper) State() *fd.State { return s.rs.st }

// Close releases nothing: a Stepper holds no goroutine or file.
func (s *Stepper) Close() {}

// exchange is post and finish with nothing in between.
func (s *schedule) exchange() {
	s.post()
	s.finish()
}

// HaloBenchConfig configures a communication-only benchmark run: a full
// multi-rank world exchanging both wavefield phases with no kernel work,
// so the exchange cost can be measured in isolation.
type HaloBenchConfig struct {
	Topo  mpi.Cart
	Local grid.Dims // per-rank subgrid
	Model CommModel
	Steps int // measured exchange steps (velocity + stress per step)
}

// HaloBenchResult reports the measured exchange cost and the observed
// (not modeled) message traffic, counted at the runtime's delivery point.
type HaloBenchResult struct {
	SecPerStep float64 // wall time per (velocity+stress) exchange step

	// Per-step totals across all ranks, measured per phase.
	VelMsgs      float64
	VelFloats    float64
	StressMsgs   float64
	StressFloats float64

	// Checksum over every rank's full padded fields (ghosts included)
	// after the exchanges.
	Checksum float64
}

// RunHaloExchangeBench runs cfg.Steps velocity+stress halo exchanges on a
// world of cfg.Topo.Size() ranks with deterministic field contents and
// returns timing, per-phase message counts and a field checksum.
func RunHaloExchangeBench(cfg HaloBenchConfig) HaloBenchResult {
	if cfg.Steps <= 0 {
		cfg.Steps = 1
	}
	var res HaloBenchResult
	world := mpi.NewWorld(cfg.Topo.Size())
	steps := cfg.Steps
	world.Run(func(c *mpi.Comm) {
		st := fd.NewState(cfg.Local)
		fillDeterministic(st, c.Rank())
		env := newHaloEnv(c, cfg.Topo, cfg.Local, nil)
		vel := classicSchedule(env, phaseVelocity, cfg.Model, st.Velocities())
		stress := classicSchedule(env, phaseStress, cfg.Model, st.Stresses())

		exchange := func(n int) {
			for s := 0; s < n; s++ {
				vel.exchange()
				stress.exchange()
			}
		}

		// Warm up the links' buffers, then count each phase separately:
		// exchanges are idempotent (fields never change), so phase-only
		// loops measure exactly the traffic the schedule produces.
		exchange(2)
		c.Barrier()
		if c.Rank() == 0 {
			world.ResetMessageStats()
		}
		c.Barrier()
		for s := 0; s < steps; s++ {
			vel.exchange()
		}
		c.Barrier()
		if c.Rank() == 0 {
			m, f := world.MessageStats()
			res.VelMsgs = float64(m) / float64(steps)
			res.VelFloats = float64(f) / float64(steps)
			world.ResetMessageStats()
		}
		c.Barrier()
		for s := 0; s < steps; s++ {
			stress.exchange()
		}
		c.Barrier()
		if c.Rank() == 0 {
			m, f := world.MessageStats()
			res.StressMsgs = float64(m) / float64(steps)
			res.StressFloats = float64(f) / float64(steps)
		}

		// Timed section: both phases per step, best of five repetitions
		// (the robust estimator under scheduler noise — GOMAXPROCS=1 runs
		// serialize every rank onto one OS thread).
		for rep := 0; rep < 5; rep++ {
			c.Barrier()
			t0 := time.Now()
			exchange(steps)
			c.Barrier()
			if c.Rank() == 0 {
				if sec := time.Since(t0).Seconds() / float64(steps); rep == 0 || sec < res.SecPerStep {
					res.SecPerStep = sec
				}
			}
		}

		// Checksum, ghosts included.
		var sum float64
		for _, f := range append(st.Velocities(), st.Stresses()...) {
			for _, v := range f.Data() {
				sum += float64(v)
			}
		}
		total := c.Allreduce([]float64{sum}, mpi.Sum)[0]
		if c.Rank() == 0 {
			res.Checksum = total
		}
	})
	return res
}

// fillDeterministic gives every interior cell of every field a value that
// depends only on (rank, field, i, j, k), so every run exchanges identical
// data.
func fillDeterministic(st *fd.State, rank int) {
	fields := append(st.Velocities(), st.Stresses()...)
	for fi, f := range fields {
		d := f.Dims
		for k := 0; k < d.NZ; k++ {
			for j := 0; j < d.NY; j++ {
				for i := 0; i < d.NX; i++ {
					h := uint32(rank*9+fi)*2654435761 + uint32(((k*d.NY+j)*d.NX+i))*40503
					f.Set(i, j, k, float32(h%8191)/8191)
				}
			}
		}
	}
}

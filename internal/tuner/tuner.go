// Package tuner implements the run-time architecture adaptation of
// §III.G: AWP-ODC determines fundamental system attributes at startup and
// selects communication model, I/O model, buffer aggregation, and
// checkpoint policy to match the machine — "a unique feature [that]
// facilitates a run-time simulation configuration". Cache blocking is not
// among them here: it is the constant fd.DefaultBlocking.
package tuner

import (
	"repro/internal/core/solver"
	"repro/internal/perfmodel"
	"repro/internal/pfs"
)

// IOMode selects the mesh-input strategy (§III.C).
type IOMode int

const (
	// PrePartitioned uses per-rank serial files (best data locality; needs
	// MDS headroom).
	PrePartitioned IOMode = iota
	// OnDemandMPIIO uses collective reads with reader/receiver
	// redistribution (best for strong collective-I/O file systems).
	OnDemandMPIIO
)

func (m IOMode) String() string {
	if m == PrePartitioned {
		return "pre-partitioned"
	}
	return "on-demand MPI-IO"
}

// Config is the tuned run-time configuration.
type Config struct {
	Comm solver.CommModel
	// Threads is the per-rank persistent worker-pool size of the hybrid
	// MPI/OpenMP execution engine (solver.Options.Threads).
	Threads         int
	ABC             solver.ABCKind
	IOMode          IOMode
	MaxOpenFiles    int // concurrent-open throttle (§IV.E)
	AggregateSteps  int // output buffer flush interval
	OutputBufferMB  int // per-core aggregation buffer (M8 used 46 MB)
	CheckpointEvery int // steps; 0 disables (M8 disabled checkpointing)
}

// Inputs describes what the runtime can observe about the job.
type Inputs struct {
	Machine       perfmodel.Machine
	FS            pfs.Config
	Cores         int
	Steps         int
	MediaGradient float64 // max relative Vs jump between neighbor cells
	FailureMTBF   int     // expected steps between failures; 0 = reliable
	// ThreadsPerRank is the hardware concurrency available to one MPI
	// rank (hybrid mode, §IV.D); 0 means one core per rank (pure MPI).
	ThreadsPerRank int
}

// Tune selects the configuration for the observed system, encoding the
// paper's decision rules.
func Tune(in Inputs) Config {
	var cfg Config

	// Communication: synchronous survives only on single-socket torus
	// machines at modest scale; NUMA systems need the async redesign, and
	// at scale the reduced set pays for itself (§IV.A).
	switch {
	case in.Machine.NUMAFactor <= 1 && in.Cores <= 32768:
		cfg.Comm = solver.Asynchronous // async never loses; sync merely tolerable
	case in.Cores >= 50000:
		cfg.Comm = solver.AsyncReduced
	default:
		cfg.Comm = solver.Asynchronous
	}

	// Hybrid execution engine: with spare hardware threads per rank, the
	// persistent pool makes computation/communication overlap win — the
	// interior update no longer serializes behind the exchange (§IV.C+D),
	// so overlap supersedes the flat async models.
	cfg.Threads = in.ThreadsPerRank
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Threads > 1 {
		cfg.Comm = solver.AsyncOverlap
	}

	// ABCs: split-field PMLs are unstable under strong media gradients
	// (§II.D); fall back to sponge layers there.
	if in.MediaGradient > 0.5 {
		cfg.ABC = solver.SpongeABC
	} else {
		cfg.ABC = solver.MPMLABC
	}

	// I/O model: per-rank pre-partitioned files need the MDS to tolerate
	// the rank count (with throttling); otherwise use collective MPI-IO
	// (§III.C: "direct I/O for strong MDS tolerance, MPI-IO for highly
	// scalable collective accesses").
	cfg.MaxOpenFiles = in.FS.MDSConcurrent
	if cfg.MaxOpenFiles <= 0 {
		cfg.MaxOpenFiles = 650 // the Jaguar policy
	}
	if in.Cores <= 50*cfg.MaxOpenFiles {
		cfg.IOMode = PrePartitioned
	} else {
		cfg.IOMode = OnDemandMPIIO
	}

	// Output aggregation: flush as rarely as memory allows (M8: every
	// 20,000 steps with 46 MB buffers).
	cfg.AggregateSteps = min(in.Steps, 20000)
	if cfg.AggregateSteps < 1 {
		cfg.AggregateSteps = 1
	}
	cfg.OutputBufferMB = 46

	// Checkpointing: Young's interval given the failure rate; disabled on
	// reliable systems (M8 ran 24 h without checkpoints to spare the FS).
	if in.FailureMTBF > 0 {
		// Checkpoint cost ~ a few steps of wall clock.
		cfg.CheckpointEvery = perfmodel.OptimalInterval(3, float64(in.FailureMTBF))
	}
	return cfg
}

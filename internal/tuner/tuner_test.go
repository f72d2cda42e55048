package tuner

import (
	"testing"

	"repro/internal/core/solver"
	"repro/internal/perfmodel"
	"repro/internal/pfs"
)

func baseInputs() Inputs {
	return Inputs{
		Machine: perfmodel.Jaguar,
		FS:      pfs.Jaguar(),
		Cores:   223074,
		Steps:   100000,
	}
}

func TestM8ProductionChoices(t *testing.T) {
	cfg := Tune(baseInputs())
	// The v7.2 production configuration.
	if cfg.Comm != solver.AsyncReduced {
		t.Errorf("comm = %v, want async-reduced at 223K cores", cfg.Comm)
	}
	if cfg.ABC != solver.MPMLABC {
		t.Errorf("ABC = %v, want M-PML on smooth media", cfg.ABC)
	}
	if cfg.MaxOpenFiles != 650 {
		t.Errorf("open throttle = %d, want the 650-OST policy", cfg.MaxOpenFiles)
	}
	if cfg.AggregateSteps != 20000 {
		t.Errorf("aggregation = %d, want 20000", cfg.AggregateSteps)
	}
	if cfg.CheckpointEvery != 0 {
		t.Errorf("checkpointing enabled on a reliable system")
	}
}

func TestStrongGradientsFallBackToSponge(t *testing.T) {
	in := baseInputs()
	in.MediaGradient = 0.8
	if cfg := Tune(in); cfg.ABC != solver.SpongeABC {
		t.Errorf("ABC = %v, want sponge under strong gradients (§II.D)", cfg.ABC)
	}
}

func TestBGLKeepsSimplerComm(t *testing.T) {
	in := baseInputs()
	in.Machine = perfmodel.BGL
	in.Cores = 16384
	cfg := Tune(in)
	if cfg.Comm != solver.Asynchronous {
		t.Errorf("comm = %v on BG/L at 16K", cfg.Comm)
	}
}

func TestIOModeSwitchesWithScale(t *testing.T) {
	in := baseInputs()
	in.Cores = 4096
	if cfg := Tune(in); cfg.IOMode != PrePartitioned {
		t.Errorf("IO = %v at 4K ranks, want pre-partitioned", cfg.IOMode)
	}
	in.FS.MDSConcurrent = 10 // weak metadata server
	in.Cores = 100000
	if cfg := Tune(in); cfg.IOMode != OnDemandMPIIO {
		t.Errorf("IO = %v with weak MDS at 100K ranks, want on-demand", cfg.IOMode)
	}
	if PrePartitioned.String() == OnDemandMPIIO.String() {
		t.Error("IO mode strings aliased")
	}
}

func TestPureMPIDefaultsToOneThread(t *testing.T) {
	cfg := Tune(baseInputs())
	if cfg.Threads != 1 {
		t.Errorf("Threads = %d with ThreadsPerRank unset, want 1", cfg.Threads)
	}
	if cfg.Comm != solver.AsyncReduced {
		t.Errorf("comm = %v, pure-MPI choice must be unchanged", cfg.Comm)
	}
}

func TestHybridThreadsSelectOverlap(t *testing.T) {
	in := baseInputs()
	in.ThreadsPerRank = 4
	cfg := Tune(in)
	if cfg.Threads != 4 {
		t.Errorf("Threads = %d, want 4", cfg.Threads)
	}
	if cfg.Comm != solver.AsyncOverlap {
		t.Errorf("comm = %v, want overlap when the pool can hide the exchange", cfg.Comm)
	}
}

func TestCheckpointIntervalFromMTBF(t *testing.T) {
	in := baseInputs()
	in.FailureMTBF = 5000
	cfg := Tune(in)
	if cfg.CheckpointEvery <= 0 {
		t.Fatal("checkpointing disabled despite failures")
	}
	// Young: sqrt(2*3*5000) = 173.2, rounded down (perfmodel.OptimalInterval).
	if cfg.CheckpointEvery != 173 {
		t.Errorf("interval = %d, want 173", cfg.CheckpointEvery)
	}
	// More reliable system -> longer interval.
	in.FailureMTBF = 500000
	if Tune(in).CheckpointEvery <= cfg.CheckpointEvery {
		t.Error("interval not increasing with MTBF")
	}
}

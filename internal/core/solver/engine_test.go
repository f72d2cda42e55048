package solver

import (
	"testing"

	"repro/internal/cvm"
	"repro/internal/mpi"
)

func TestNegativeThreadsRejected(t *testing.T) {
	opt := baseOptions(mpi.NewCart(1, 1, 1))
	opt.Threads = -1
	if _, err := Run(cvm.HardRock(), opt); err == nil {
		t.Fatal("Threads=-1 accepted; must be rejected, not silently serialized")
	}
}

package ft

import (
	"testing"

	"repro/internal/pfs"
)

func testFS() *pfs.FS {
	return pfs.New(pfs.Config{OSTs: 4, OSTBandwidth: 1e8, MDSLatency: 1e-4, MDSConcurrent: 8})
}

func TestOptimalInterval(t *testing.T) {
	// Young's formula: sqrt(2*C*MTBF).
	if got := OptimalInterval(2, 400); got != 40 {
		t.Fatalf("OptimalInterval = %d, want 40", got)
	}
	if OptimalInterval(0, 100) != 1 || OptimalInterval(1, 0) != 1 {
		t.Fatal("degenerate inputs should clamp to 1")
	}
	// Longer MTBF -> longer interval.
	if OptimalInterval(2, 10000) <= OptimalInterval(2, 100) {
		t.Fatal("interval not increasing with MTBF")
	}
}

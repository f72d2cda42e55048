package output

import (
	"math/rand"
	"testing"

	"repro/internal/pfs"
)

func testFS() *pfs.FS {
	return pfs.New(pfs.Config{OSTs: 8, OSTBandwidth: 1e8, MDSLatency: 1e-3, MDSConcurrent: 4})
}

func TestParallelMD5MatchesSerial(t *testing.T) {
	data := make([]byte, 1<<16)
	rng := rand.New(rand.NewSource(3))
	rng.Read(data)
	for _, parts := range []int{1, 3, 8, 64} {
		p := ParallelMD5(data, parts)
		s := SerialMD5(data, parts)
		if len(p) != len(s) {
			t.Fatalf("parts=%d: lengths differ", parts)
		}
		for i := range p {
			if p[i] != s[i] {
				t.Fatalf("parts=%d chunk %d differs", parts, i)
			}
		}
	}
	// Degenerate inputs.
	if got := ParallelMD5(nil, 4); len(got) != 4 {
		t.Fatalf("nil data: %d sums", len(got))
	}
	if got := ParallelMD5([]byte{1}, 0); len(got) != 1 {
		t.Fatalf("0 parts: %d sums", len(got))
	}
}

// Aggregation must collapse the I/O overhead the way §III.E reports:
// per-step flushing is dominated by metadata+latency, while flushing every
// 20k steps makes I/O negligible.
func TestOverheadAggregationEffect(t *testing.T) {
	fsys := testFS()
	steps := 2000
	stepCompute := 1e-3 // 1 ms/step compute
	perStep := 1 << 10  // 1 KiB/step output

	unagg := OverheadModel(fsys, "out/u.bin", steps, stepCompute, perStep, 1)
	agg := OverheadModel(fsys, "out/a.bin", steps, stepCompute, perStep, 500)
	if !(unagg > 0.15) {
		t.Fatalf("unaggregated overhead %g, expected substantial (>15%%)", unagg)
	}
	if !(agg < 0.02) {
		t.Fatalf("aggregated overhead %g, want < 2%%", agg)
	}
	if agg >= unagg/10 {
		t.Fatalf("aggregation gain too small: %g vs %g", agg, unagg)
	}
}

package meshpart

import (
	"runtime"
	"testing"

	"repro/internal/agg"
	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/meshgen"
	"repro/internal/mpi"
	"repro/internal/pfs"
)

// TestSetupChainAllocBudget holds the set-up chain — GenerateStreamed (4
// cores, 2 chunk planes, 2 aggregators) → StreamPrePartition → OnDemand —
// to a ceiling of bytes allocated per mesh byte in each stage, read from
// runtime.MemStats.TotalAlloc around it. At 48×32×16 the stages allocate
// 4.3×, 4.2× and 4.4× the mesh. They allocated 8.5× and 7.1× (the first
// two) while the aggregator copied every shipped byte three times on the
// wire and StreamPrePartition allocated each rank's padded arrays and byte
// image afresh; and 11.9×, 10.2× and 8.2× when the aggregator read back and
// hashed every stripe it wrote, meshgen staged each round as float32s before
// encoding it, and the partitioner decoded whole blocks and planes into
// float32s. Each ceiling sits below what one such copy would add back.
func TestSetupChainAllocBudget(t *testing.T) {
	g := grid.Dims{NX: 48, NY: 32, NZ: 16}
	fsys := pfs.New(pfs.Jaguar())
	fsys.SetStripe("in/", 0, 1<<20)
	q := cvm.SoCal(float64(g.NX-1)*400, float64(g.NY-1)*400, float64(g.NZ-1)*400, 500)
	dc, err := decomp.New(g, mpi.NewCart(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	meshBytes := float64(g.Cells() * meshgen.RecBytes)
	for _, stage := range []struct {
		name    string
		ceiling float64
		run     func() error
	}{
		{"meshgen.GenerateStreamed", 4.8, func() error {
			_, err := meshgen.GenerateStreamed(fsys, q, meshgen.StreamSpec{
				Spec:        meshgen.Spec{Path: "in/mesh.bin", Global: g, H: 400, Cores: 4},
				ChunkPlanes: 2, Agg: agg.Config{Aggregators: 2},
			})
			return err
		}},
		{"StreamPrePartition", 4.8, func() error {
			_, _, err := StreamPrePartition(fsys, "in/mesh.bin", "parts", g, dc, 0)
			return err
		}},
		{"OnDemand", 6.0, func() error {
			_, _, err := OnDemand(fsys, "in/mesh.bin", g, dc, 2, 1)
			return err
		}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := stage.run(); err != nil {
			t.Fatalf("%s: %v", stage.name, err)
		}
		runtime.ReadMemStats(&after)
		ratio := float64(after.TotalAlloc-before.TotalAlloc) / meshBytes
		t.Logf("%s: %.2f bytes allocated per mesh byte (ceiling %.1f)", stage.name, ratio, stage.ceiling)
		if ratio > stage.ceiling {
			t.Errorf("%s allocated %.2f bytes per mesh byte, ceiling %.1f", stage.name, ratio, stage.ceiling)
		}
	}
}

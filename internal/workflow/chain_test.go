package workflow

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/agg"
)

// smallChain is cmd/pipeline's default config at 20 steps.
func smallChain() ChainConfig {
	return ChainConfig{NX: 48, NY: 32, NZ: 16, Ranks: 4, Steps: 20, Aggregators: 2,
		Throttle: agg.DefaultOpenThrottle, StripeSize: 4 << 20, ChunkPlanes: 2}
}

// TestChainRejectsBeforeFirstStage holds each flag floor, and each grid a
// later stage cannot run, to an error before the first stage starts.
func TestChainRejectsBeforeFirstStage(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*ChainConfig)
		want string
	}{
		{"nx 0", func(c *ChainConfig) { c.NX = 0 }, "-nx must be >= 1"},
		{"ny 0", func(c *ChainConfig) { c.NY = 0 }, "-ny must be >= 1"},
		{"nz 0", func(c *ChainConfig) { c.NZ = 0 }, "-nz must be >= 1"},
		{"ranks 1", func(c *ChainConfig) { c.Ranks = 1 }, "-ranks must be >= 2"},
		{"steps 0", func(c *ChainConfig) { c.Steps = 0 }, "-steps must be >= 1"},
		{"aggregators -1", func(c *ChainConfig) { c.Aggregators = -1 }, "-aggregators must be >= 0"},
		{"throttle -1", func(c *ChainConfig) { c.Throttle = -1 }, "-throttle must be >= 0"},
		{"stripe-count -1", func(c *ChainConfig) { c.StripeCount = -1 }, "-stripe-count must be >= 0"},
		{"stripe-size 0", func(c *ChainConfig) { c.StripeSize = 0 }, "-stripe-size must be >= 1"},
		{"chunk-planes 0", func(c *ChainConfig) { c.ChunkPlanes = 0 }, "-chunk-planes must be >= 1"},
		{"nx 1", func(c *ChainConfig) { c.NX = 1 }, "empty fault extent"},
		{"nx 10", func(c *ChainConfig) { c.NX = 10 }, "empty fault extent"},
		{"nx 19", func(c *ChainConfig) { c.NX = 19 }, "hypocenter outside fault"},
		{"ny 1", func(c *ChainConfig) { c.NY = 1 }, "no topology of 4 ranks"},
		{"nz 5", func(c *ChainConfig) { c.NZ = 5 }, "the fault reaches depth 10, -nz is 5"},
		{"ranks 100000", func(c *ChainConfig) { c.Ranks = 100000 }, "no topology of 100000 ranks"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := smallChain()
			tc.edit(&c)
			r, err := RunChain(c)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
			if len(r.Stages) != 0 {
				t.Fatalf("%d stages ran before the error", len(r.Stages))
			}
		})
	}
}

// TestChainDeterministic runs one config twice: every stage runs, in
// order, and the two reports agree on everything but the wall clock —
// bytes, points, stripe checksums, virtual I/O seconds, transfer retries,
// the registry and the PGVH map.
func TestChainDeterministic(t *testing.T) {
	var reports [2]ChainReport
	for i := range reports {
		r, err := RunChain(smallChain())
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for j := range r.Stages {
			names = append(names, r.Stages[j].Name)
			r.Stages[j].Seconds = 0
		}
		want := []string{"meshgen.GenerateStreamed", "meshpart.StreamPrePartition", "meshpart.OnDemand",
			"srcgen", "solver.Run", "workflow.Transfer", "workflow.Ingest+VerifyReplica"}
		if !reflect.DeepEqual(names, want) {
			t.Fatalf("stages %q, want %q", names, want)
		}
		reports[i] = r
	}
	r := reports[0]
	if r.Mesh.Points != 48*32*16 || r.Solve.Surface == nil || len(r.Solve.Surface.Stripes) == 0 ||
		len(r.Solve.PGVH) != 48*32 || !r.Transfer.Verified || r.Registered != 3 {
		t.Fatalf("report %+v", r)
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Fatalf("two runs of one config differ:\n%+v\n%+v", reports[0], reports[1])
	}
}

package workflow

import (
	"fmt"
	"time"

	"repro/internal/agg"
	"repro/internal/core/solver"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/meshgen"
	"repro/internal/meshpart"
	"repro/internal/mpi"
	"repro/internal/output"
	"repro/internal/pfs"
	"repro/internal/srcgen"
)

// ChainConfig sizes one run of the production chain of Fig. 4 and Fig. 10:
// CVM2MESH -> PetaMeshP -> dSrcG -> PetaSrcP -> AWM solve -> aggregated
// output + checksums -> E2EaW archive transfer -> iRODS ingest.
type ChainConfig struct {
	NX, NY, NZ  int // grid cells
	Ranks       int // solver ranks
	Steps       int // time steps
	Aggregators int // writer ranks of the two-phase collective output (0: one per stripe, up to the ranks)
	Throttle    int // concurrent file opens per I/O phase (0: agg.DefaultOpenThrottle)
	StripeCount int // stripe count of the output files (0: all OSTs)
	StripeSize  int // stripe size of the output files, bytes
	ChunkPlanes int // z-planes held live per core in streaming mesh extraction
}

// ChainReport is what each stage of one RunChain produced. Stages is the
// wall-clock measure; everything else is a count, a checksum or priced by
// the simulated file systems and link, so the same ChainConfig reproduces
// it.
type ChainReport struct {
	Topo          mpi.Cart
	Mesh          meshgen.StreamStats
	Partition     pfs.PhaseStats       // the stream pre-partition's write phase
	PartitionLive meshpart.StreamStats // its waves and peak live bytes
	OnDemand      pfs.PhaseStats       // the on-demand MPI-IO read
	Subfaults     int
	SourceFile    pfs.PhaseStats // the source file's write phase
	SourceBytes   int            // srcgen.MemoryBytes of all sub-faults
	SourcePeak    int            // srcgen.HighWater of the temporal loops
	SourceLoops   int
	Solve         *solver.Result // Solve.Surface's stripes are verified against a read-back
	Transfer      TransferStats
	IngestSeconds float64 // simulated
	Registered    int     // registry entries; every replica is verified against its entry
	Stages        []StageTime
}

// StageTime is the wall time of one stage of the chain.
type StageTime struct {
	Name    string
	Seconds float64
}

// chainStages names RunChain's stages in the order they run. The first
// four are the set-up: everything before the solver.
var chainStages = []string{
	"meshgen.GenerateStreamed", "meshpart.StreamPrePartition", "meshpart.OnDemand", "srcgen",
	"solver.Run", "workflow.Transfer", "workflow.Ingest+VerifyReplica",
}

// RunChain runs the chain on fresh simulated file systems — scratch at the
// compute site, an archive at the other — and checks every product it
// verifies: the surface file's stripe checksums against a read-back, the
// transfer's digests, and each archived replica against the registry. A
// config the chain cannot run fails before the first stage.
func RunChain(c ChainConfig) (ChainReport, error) {
	var r ChainReport
	g, topo, spec, err := c.plan()
	if err != nil {
		return r, err
	}
	r.Topo = topo
	aggCfg := agg.Config{Aggregators: c.Aggregators, OpenThrottle: c.Throttle}
	h := spec.H
	scratch := pfs.New(pfs.Jaguar())
	scratch.SetStripe("in/", 0, 1<<20) // wide stripe for shared input
	scratch.SetStripe("out/", c.StripeCount, c.StripeSize)
	q := cvm.SoCal(float64(g.NX-1)*h, float64(g.NY-1)*h, float64(g.NZ-1)*h, 500)
	paths := []string{"out/surface.bin", "in/mesh.bin", "in/source.bin"}
	archive := Site{Name: "kraken-hpss", FS: pfs.New(pfs.Jaguar())}
	var dc decomp.Decomp
	var srcs []source.SampledSource

	stages := []func() error{func() error {
		// CVM2MESH: out-of-core streaming extraction (§IV.E).
		var err error
		r.Mesh, err = meshgen.GenerateStreamed(scratch, q, meshgen.StreamSpec{
			Spec:        meshgen.Spec{Path: "in/mesh.bin", Global: g, H: h, Cores: 4},
			ChunkPlanes: c.ChunkPlanes,
			Agg:         aggCfg,
		})
		return err
	}, func() error {
		// PetaMeshP, I/O model 1: pre-partitioned files.
		var err error
		if dc, err = decomp.New(g, topo); err != nil {
			return err
		}
		r.Partition, r.PartitionLive, err = meshpart.StreamPrePartition(scratch, "in/mesh.bin", "parts", g, dc, c.Throttle)
		return err
	}, func() error {
		// PetaMeshP, I/O model 2: on-demand MPI-IO reads.
		var err error
		_, r.OnDemand, err = meshpart.OnDemand(scratch, "in/mesh.bin", g, dc, 2, 1)
		return err
	}, func() error {
		// dSrcG + PetaSrcP.
		var err error
		if srcs, err = spec.Generate(); err != nil {
			return err
		}
		r.Subfaults, r.SourceBytes = len(srcs), srcgen.MemoryBytes(srcs)
		r.SourceFile = srcgen.WriteSourceFile(scratch, "in/source.bin", srcs)
		segs, err := srcgen.PartitionTemporal(srcs, 6)
		r.SourcePeak, r.SourceLoops = srcgen.HighWater(segs), len(segs)
		return err
	}, func() error {
		// AWM solve with in-band aggregated surface output and per-stripe
		// checksums.
		var err error
		r.Solve, err = solver.Run(q, solver.Options{
			Global: g, H: h, Steps: c.Steps, Topo: topo,
			Comm: solver.AsyncReduced, ABC: solver.SpongeABC, SpongeWidth: 6,
			FreeSurface: true, Attenuation: true,
			Sources: srcs, TrackPGV: true,
			Surface: &solver.SurfaceOptions{
				FS: scratch, Path: "out/surface.bin",
				Every: 10, FlushEvery: 5,
				Agg: aggCfg,
			},
		})
		if err != nil {
			return err
		}
		return output.VerifyStripes(scratch, "out/surface.bin", r.Solve.Surface.Stripes)
	}, func() error {
		// E2EaW: transfer to the archive site.
		tr := NewTransferer(Link{BandwidthPerStream: 25e6, MaxStreams: 16, FailureRate: 0.05}, 42)
		var err error
		r.Transfer, err = tr.Transfer(Site{Name: "jaguar-scratch", FS: scratch}, archive, paths, 8)
		return err
	}, func() error {
		// iRODS ingest through aggregated PIPUT, then every replica
		// against its registered digest.
		reg := NewRegistry()
		var err error
		if r.IngestSeconds, err = reg.Ingest(archive, paths, 8, 17.7e6); err != nil {
			return err
		}
		r.Registered = reg.Count()
		for _, p := range paths {
			if err := reg.VerifyReplica(archive, p); err != nil {
				return err
			}
		}
		return nil
	}}
	for i, fn := range stages {
		t0 := time.Now()
		err := fn()
		r.Stages = append(r.Stages, StageTime{chainStages[i], time.Since(t0).Seconds()})
		if err != nil {
			return r, err
		}
	}
	return r, nil
}

// plan checks c against the flag floors and against everything about the
// grid a later stage would fail on, so a config the chain cannot run fails
// before the first stage writes a byte. It returns the grid, the ranks'
// topology and the rupture.
func (c ChainConfig) plan() (g grid.Dims, topo mpi.Cart, spec source.HaskellSpec, err error) {
	for _, f := range []struct {
		name   string
		v, min int
	}{
		// Two ranks at least: the on-demand read runs two readers.
		{"nx", c.NX, 1}, {"ny", c.NY, 1}, {"nz", c.NZ, 1}, {"ranks", c.Ranks, 2}, {"steps", c.Steps, 1},
		{"aggregators", c.Aggregators, 0}, {"throttle", c.Throttle, 0}, {"stripe-count", c.StripeCount, 0},
		{"stripe-size", c.StripeSize, 1}, {"chunk-planes", c.ChunkPlanes, 1},
	} {
		if f.v < f.min {
			return g, topo, spec, fmt.Errorf("-%s must be >= %d, got %d", f.name, f.min, f.v)
		}
	}
	g = grid.Dims{NX: c.NX, NY: c.NY, NZ: c.NZ}
	// dSrcG's rupture: a vertical strike-slip fault on the middle y plane,
	// 8 cells in from each x end, 2 to 10 deep.
	spec = source.HaskellSpec{
		GJ: g.NY / 2, I0: 8, I1: g.NX - 8, K0: 2, K1: 10,
		HypoI: g.NX - 12, HypoK: 6,
		H: 400, Mw: 6.5, Vr: 2800, RiseTime: 1.0,
		Dt: 0.02, NT: 500, TaperCells: 2,
	}
	if err = spec.Validate(); err != nil {
		return g, topo, spec, fmt.Errorf("%w: -nx %d leaves too short a fault", err, g.NX)
	}
	if spec.K1 > g.NZ {
		return g, topo, spec, fmt.Errorf("source: the fault reaches depth %d, -nz is %d", spec.K1, g.NZ)
	}
	// The cheapest step by decomp.StepCost, as awp.Topology picks it for a
	// sponge run.
	topo, err = decomp.BestTopo(g, c.Ranks, 2*grid.Ghost, false, decomp.StepCost)
	return g, topo, spec, err
}

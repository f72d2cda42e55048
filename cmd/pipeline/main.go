// Command pipeline demonstrates the full AWP-ODC production workflow of
// Fig. 4 and Fig. 10 end to end on the simulated infrastructure:
//
//	CVM2MESH -> PetaMeshP -> dSrcG -> PetaSrcP -> AWM solve ->
//	aggregated output + checksums -> E2EaW archive transfer -> iRODS ingest
//
// printing the I/O and transfer statistics the paper reports for each
// stage (§III).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/agg"
	"repro/internal/core/solver"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/meshgen"
	"repro/internal/meshpart"
	"repro/internal/pfs"
	"repro/internal/srcgen"
	"repro/internal/workflow"
)

func main() {
	nx := flag.Int("nx", 48, "grid cells in x")
	ny := flag.Int("ny", 32, "grid cells in y")
	nz := flag.Int("nz", 16, "grid cells in z")
	ranks := flag.Int("ranks", 4, "solver ranks")
	steps := flag.Int("steps", 200, "time steps")
	aggs := flag.Int("aggregators", 2, "aggregator (writer) ranks for two-phase collective output")
	throttle := flag.Int("throttle", agg.DefaultOpenThrottle, "max concurrent file opens per I/O phase")
	stripeCount := flag.Int("stripe-count", 0, "stripe count for output files (0: all OSTs)")
	stripeSize := flag.Int("stripe-size", 4<<20, "stripe size in bytes for output files")
	chunkPlanes := flag.Int("chunk-planes", 2, "z-planes held live per core in streaming mesh extraction")
	flag.Parse()
	if *ranks < 1 {
		check(fmt.Errorf("-ranks must be >= 1, got %d", *ranks))
	}

	aggCfg := agg.Config{Aggregators: *aggs, OpenThrottle: *throttle}
	h := 400.0
	g := grid.Dims{NX: *nx, NY: *ny, NZ: *nz}
	scratch := pfs.New(pfs.Jaguar())
	scratch.SetStripe("in/", 0, 1<<20) // wide stripe for shared input
	scratch.SetStripe("out/", *stripeCount, *stripeSize)
	q := cvm.SoCal(float64(g.NX-1)*h, float64(g.NY-1)*h, float64(g.NZ-1)*h, 500)

	// --- CVM2MESH (out-of-core streaming extraction, §IV.E) ---
	mst, err := meshgen.GenerateStreamed(scratch, q, meshgen.StreamSpec{
		Spec:        meshgen.Spec{Path: "in/mesh.bin", Global: g, H: h, Cores: 4},
		ChunkPlanes: *chunkPlanes,
		Agg:         aggCfg,
	})
	check(err)
	fmt.Printf("CVM2MESH:  %d points (%.1f MB) streamed in %d rounds, peak %.1f KB/core; "+
		"%d writers, %d opens; write phase %.3fs @ %.2f GB/s\n",
		mst.Points, float64(mst.Bytes)/1e6, mst.Rounds, float64(mst.PeakCoreBytes)/1e3,
		mst.Writers, mst.Opens, mst.WritePhase.Elapsed, mst.WritePhase.Throughput/1e9)

	// --- PetaMeshP (both I/O models) ---
	// The ranks' topology is the cheapest step by decomp.StepCost, as
	// awp.Topology picks it for a sponge run.
	topo, err := decomp.BestTopo(g, *ranks, 2*grid.Ghost, false, decomp.StepCost)
	check(err)
	dc, err := decomp.New(g, topo)
	check(err)
	pst, sst, err := meshpart.StreamPrePartition(scratch, "in/mesh.bin", "parts", g, dc, *throttle)
	check(err)
	fmt.Printf("PetaMeshP: stream-partitioned to %d files in %d waves, peak %.1f KB live; %.3fs\n",
		topo.Size(), sst.Waves, float64(sst.PeakBytes)/1e3, pst.Elapsed)
	_, ost, err := meshpart.OnDemand(scratch, "in/mesh.bin", g, dc, 2, 1)
	check(err)
	fmt.Printf("PetaMeshP: on-demand MPI-IO read %.1f MB in %.3fs (readers: 2)\n",
		float64(ost.Bytes)/1e6, ost.Elapsed)

	// --- dSrcG + PetaSrcP ---
	spec := source.HaskellSpec{
		GJ: g.NY / 2, I0: 8, I1: g.NX - 8, K0: 2, K1: 10,
		HypoI: g.NX - 12, HypoK: 6,
		H: h, Mw: 6.5, Vr: 2800, RiseTime: 1.0,
		Mu: 3.3e10, Dt: 0.02, NT: 500, TaperCells: 2,
	}
	srcs, err := spec.Generate()
	check(err)
	wst := srcgen.WriteSourceFile(scratch, "in/source.bin", srcs)
	fmt.Printf("dSrcG:     %d sub-faults (%.2f MB) written in %.4fs\n",
		len(srcs), float64(wst.Bytes)/1e6, wst.Elapsed)
	segs, err := srcgen.PartitionTemporal(srcs, 6)
	check(err)
	fmt.Printf("PetaSrcP:  memory high water %.2f MB vs %.2f MB unsplit (%d temporal loops)\n",
		float64(srcgen.HighWater(segs))/1e6, float64(srcgen.MemoryBytes(srcs))/1e6, len(segs))

	// --- AWM solve with in-band aggregated surface output ---
	res, err := solver.Run(q, solver.Options{
		Global: g, H: h, Steps: *steps, Topo: topo,
		Comm: solver.AsyncReduced, ABC: solver.SpongeABC, SpongeWidth: 6,
		FreeSurface: true, Attenuation: true,
		Sources: srcs, TrackPGV: true,
		Surface: &solver.SurfaceOptions{
			FS: scratch, Path: "out/surface.bin",
			Every: 10, FlushEvery: 5,
			Agg: aggCfg,
		},
	})
	check(err)
	var pgvMax float64
	for _, v := range res.PGVH {
		if v > pgvMax {
			pgvMax = v
		}
	}
	fmt.Printf("AWM:       %d steps on %d ranks; PGVH max %.3f m/s; comp %.2fs comm %.2fs active %.3f\n",
		res.Steps, topo.Size(), pgvMax, res.Timing.Comp, res.Timing.Comm, res.ActiveShare)

	// --- Two-phase aggregated surface output with per-stripe checksums ---
	so := res.Surface
	fmt.Printf("Output:    %.1f MB surface velocity in %d frames -> %d aggregated flushes "+
		"(%d opens, max %d concurrent), %d stripe checksums, I/O time %.3fs\n",
		float64(so.Bytes)/1e6, so.Frames, so.Flushes,
		so.Opens, so.MaxConcurrentOpens, len(so.Stripes), so.Phase.Elapsed)

	// --- E2EaW archive: transfer to the archive site and ingest ---
	src := workflow.Site{Name: "jaguar-scratch", FS: scratch}
	archive := workflow.Site{Name: "kraken-hpss", FS: pfs.New(pfs.Jaguar())}
	tr := workflow.NewTransferer(workflow.Link{
		BandwidthPerStream: 25e6, MaxStreams: 16, FailureRate: 0.05,
	}, 42)
	paths := []string{"out/surface.bin", "in/mesh.bin", "in/source.bin"}
	tst, err := tr.Transfer(src, archive, paths, 8)
	check(err)
	fmt.Printf("E2EaW:     %d files (%.1f MB) transferred at %.1f MB/s, %d retries, verified=%v\n",
		tst.Files, float64(tst.Bytes)/1e6, tst.Throughput/1e6, tst.Retries, tst.Verified)

	reg := workflow.NewRegistry()
	ingestTime, err := reg.Ingest(archive, paths, 8, 17.7e6)
	check(err)
	fmt.Printf("PIPUT:     %d objects registered in %.2fs (aggregated ingestion)\n",
		reg.Count(), ingestTime)
	for _, p := range paths {
		check(reg.VerifyReplica(archive, p))
	}
	fmt.Println("integrity: all archive replicas verified against registered MD5 hash-list digests")
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipeline: %v\n", err)
		os.Exit(1)
	}
}

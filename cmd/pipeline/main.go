// Command pipeline demonstrates the full AWP-ODC production workflow of
// Fig. 4 and Fig. 10 end to end on the simulated infrastructure:
//
//	CVM2MESH -> PetaMeshP -> dSrcG -> PetaSrcP -> AWM solve ->
//	aggregated output + checksums -> E2EaW archive transfer -> iRODS ingest
//
// printing the I/O and transfer statistics the paper reports for each
// stage (§III). workflow.RunChain runs the stages.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/agg"
	"repro/internal/workflow"
)

func main() {
	var c workflow.ChainConfig
	flag.IntVar(&c.NX, "nx", 48, "grid cells in x")
	flag.IntVar(&c.NY, "ny", 32, "grid cells in y")
	flag.IntVar(&c.NZ, "nz", 16, "grid cells in z")
	flag.IntVar(&c.Ranks, "ranks", 4, "solver ranks")
	flag.IntVar(&c.Steps, "steps", 200, "time steps")
	flag.IntVar(&c.Aggregators, "aggregators", 2, "aggregator (writer) ranks for two-phase collective output (0: one per stripe, up to the ranks)")
	flag.IntVar(&c.Throttle, "throttle", agg.DefaultOpenThrottle, "max concurrent file opens per I/O phase (0: 650)")
	flag.IntVar(&c.StripeCount, "stripe-count", 0, "stripe count for output files (0: all OSTs)")
	flag.IntVar(&c.StripeSize, "stripe-size", 4<<20, "stripe size in bytes for output files")
	flag.IntVar(&c.ChunkPlanes, "chunk-planes", 2, "z-planes held live per core in streaming mesh extraction")
	flag.Parse()
	r, err := workflow.RunChain(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipeline: %v\n", err)
		os.Exit(1)
	}

	mst := r.Mesh
	fmt.Printf("CVM2MESH:  %d points (%.1f MB) streamed in %d rounds, peak %.1f KB/core; "+
		"%d writers, %d opens; write phase %.3fs @ %.2f GB/s\n",
		mst.Points, float64(mst.Bytes)/1e6, mst.Rounds, float64(mst.PeakCoreBytes)/1e3,
		mst.Writers, mst.Opens, mst.WritePhase.Elapsed, mst.WritePhase.Throughput/1e9)
	fmt.Printf("PetaMeshP: stream-partitioned to %d files in %d waves, peak %.1f KB live; %.3fs\n",
		r.Topo.Size(), r.PartitionLive.Waves, float64(r.PartitionLive.PeakBytes)/1e3, r.Partition.Elapsed)
	fmt.Printf("PetaMeshP: on-demand MPI-IO read %.1f MB in %.3fs (readers: 2)\n",
		float64(r.OnDemand.Bytes)/1e6, r.OnDemand.Elapsed)
	fmt.Printf("dSrcG:     %d sub-faults (%.2f MB) written in %.4fs\n",
		r.Subfaults, float64(r.SourceFile.Bytes)/1e6, r.SourceFile.Elapsed)
	fmt.Printf("PetaSrcP:  memory high water %.2f MB vs %.2f MB unsplit (%d temporal loops)\n",
		float64(r.SourcePeak)/1e6, float64(r.SourceBytes)/1e6, r.SourceLoops)

	res := r.Solve
	var pgvMax float64
	for _, v := range res.PGVH {
		pgvMax = max(pgvMax, v)
	}
	fmt.Printf("AWM:       %d steps on %d ranks; PGVH max %.3f m/s; comp %.2fs comm %.2fs active %.3f\n",
		res.Steps, r.Topo.Size(), pgvMax, res.Timing.Comp, res.Timing.Comm, res.ActiveShare)
	so := res.Surface
	fmt.Printf("Output:    %.1f MB surface velocity in %d frames -> %d aggregated flushes "+
		"(%d opens, max %d concurrent), %d stripe checksums, I/O time %.3fs\n",
		float64(so.Bytes)/1e6, so.Frames, so.Flushes,
		so.Opens, so.MaxConcurrentOpens, len(so.Stripes), so.Phase.Elapsed)
	fmt.Printf("Output:    surface stripes verified: all %d match a read-back of the file\n", len(so.Stripes))

	tst := r.Transfer
	fmt.Printf("E2EaW:     %d files (%.1f MB) transferred at %.1f MB/s, %d retries, verified=%v\n",
		tst.Files, float64(tst.Bytes)/1e6, tst.Throughput/1e6, tst.Retries, tst.Verified)
	fmt.Printf("PIPUT:     %d objects registered in %.2fs (aggregated ingestion)\n",
		r.Registered, r.IngestSeconds)
	fmt.Println("integrity: all archive replicas verified against registered MD5 hash-list digests")
}

package main

import (
	"crypto/md5"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"repro/internal/agg"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/meshgen"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/perfmodel"
	"repro/internal/pfs"
)

// ioIdentity is the end-to-end checksum gate on real bytes: the same
// distributed view written through the two-phase aggregator and through
// the per-rank path must produce bit-identical files, and the aggregator's
// write-time per-stripe checksums must equal the per-rank reference file's.
type ioIdentity struct {
	Ranks        int    `json:"ranks"`
	Aggregators  int    `json:"aggregators"`
	Writers      int    `json:"writers"`
	Bytes        int    `json:"bytes"`
	StripeCount  int    `json:"stripe_count"`
	StripeSize   int    `json:"stripe_size"`
	AggMD5       string `json:"agg_md5"`
	PerRankMD5   string `json:"per_rank_md5"`
	FilesEqual   bool   `json:"files_equal"`
	Stripes      int    `json:"stripes"`
	StripesEqual bool   `json:"stripes_equal"`
	AggOpens     int    `json:"agg_opens"`
	PerRankOpens int    `json:"per_rank_opens"`
	MaxConcOpens int    `json:"max_concurrent_opens"`
	ShippedBytes int    `json:"shipped_bytes"`
}

// ioModelRow is one point of the perfmodel 49%->2% curve: the M8 job at a
// Jaguar core count, I/O fraction of the step time with per-rank output
// (v6-era, IOAggregated=false) vs the aggregated path with 670 writer
// ranks.
type ioModelRow struct {
	Cores       int     `json:"cores"`
	PerRankFrac float64 `json:"per_rank_io_frac"`
	AggFrac     float64 `json:"agg_io_frac"`
}

// ioSweepRow is one point of the virtual overhead sweep on the Jaguar PFS
// model: P ranks each buffering BytesPerRank of surface output over a
// ComputeSec interval. The per-rank path writes every recorded frame
// itself (P concurrent opens, the metadata storm); the aggregated path
// buffers the interval and flushes once through `writers` column streams
// under the open throttle.
type ioSweepRow struct {
	Ranks        int     `json:"ranks"`
	Aggregators  int     `json:"aggregators"`
	Writers      int     `json:"writers"`
	StripeCount  int     `json:"stripe_count"`
	StripeSize   int     `json:"stripe_size"`
	Throttle     int     `json:"throttle"`
	BytesPerRank int     `json:"bytes_per_rank"`
	ComputeSec   float64 `json:"compute_sec"`
	PerRankSec   float64 `json:"per_rank_io_sec"`
	AggSec       float64 `json:"agg_io_sec"`
	PerRankOver  float64 `json:"per_rank_overhead"`
	AggOver      float64 `json:"agg_overhead"`
	AggOpens     int     `json:"agg_opens"`
	MaxConcOpens int     `json:"max_concurrent_opens"`
	Waves        int     `json:"waves"`
}

// ioCliffRow is one point of the MDS-degradation cliff: n concurrent
// opens against the Jaguar MDS (raw) vs the same ops issued in throttled
// waves of <= 650.
type ioCliffRow struct {
	Opens            int     `json:"opens"`
	RawSec           float64 `json:"raw_sec"`
	RawPerOpenUs     float64 `json:"raw_per_open_us"`
	ThrottledSec     float64 `json:"throttled_sec"`
	ThrottledWaves   int     `json:"throttled_waves"`
	ThrottledMaxConc int     `json:"throttled_max_concurrent"`
}

// ioMeshgenRow is one NZ point of the out-of-core streaming extraction:
// the streamed file must be bit-identical to the all-at-once generator
// and the peak live mesh bytes per core must stay O(chunk), independent
// of NZ.
type ioMeshgenRow struct {
	NZ            int    `json:"nz"`
	MeshBytes     int    `json:"mesh_bytes"`
	PeakCoreBytes int    `json:"peak_core_bytes"`
	Rounds        int    `json:"rounds"`
	Writers       int    `json:"writers"`
	Opens         int    `json:"opens"`
	OneShotMD5    string `json:"one_shot_md5"`
	StreamedMD5   string `json:"streamed_md5"`
	Identical     bool   `json:"identical"`
}

type ioReport struct {
	GeneratedBy string `json:"generated_by"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	// Caveat documents what is measured vs modeled: identity and meshgen
	// sections move real bytes through the real aggregator; sweep and
	// cliff sections price ops on the simulated Lustre model (pfs).
	Caveat   string         `json:"caveat"`
	Identity ioIdentity     `json:"identity"`
	Model    []ioModelRow   `json:"model"`
	Sweep    []ioSweepRow   `json:"sweep"`
	Cliff    []ioCliffRow   `json:"cliff"`
	Meshgen  []ioMeshgenRow `json:"meshgen"`
	// GatesEnforced is false in -short mode: the smoke run reports the
	// same tables but only enforces the bit-identity gates.
	GatesEnforced bool `json:"gates_enforced"`
}

func ioFail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchtab: io: "+format+"\n", args...)
	os.Exit(1)
}

// ioIdentityRun writes one distributed view twice on the same simulated
// FS — through agg.WriteIndexed and through per-rank mpiio.WriteIndexed —
// and compares the files byte for byte and stripe for stripe.
func ioIdentityRun() ioIdentity {
	const ranks = 16
	g := grid.Dims{NX: 48, NY: 10, NZ: 7}
	const rec = 12
	fsys := pfs.New(pfs.Config{OSTs: 16, OSTBandwidth: 32e6, MDSLatency: 1e-3, MDSConcurrent: 8})
	fsys.SetStripe("out/", 8, 4<<10)
	cfg := agg.Config{Aggregators: 4}

	view := func(r int) ([]mpiio.Segment, []byte) {
		i0 := r * g.NX / ranks
		i1 := (r + 1) * g.NX / ranks
		segs := mpiio.BlockSegments(g, i0, i1, 0, g.NY, 0, g.NZ, rec)
		data := make([]byte, mpiio.TotalLen(segs))
		n := 0
		for _, s := range segs {
			for b := 0; b < s.Len; b++ {
				data[n] = byte((s.Off + b) * 131)
				n++
			}
		}
		return segs, data
	}

	var id ioIdentity
	stats := make([]agg.WriteStats, ranks)
	w := mpi.NewWorld(ranks)
	err := w.RunErr(func(c *mpi.Comm) error {
		segs, data := view(c.Rank())
		st, err := agg.WriteIndexed(c, fsys, "out/agg.bin", segs, data, cfg)
		if err != nil {
			return err
		}
		stats[c.Rank()] = st
		return mpiio.WriteIndexed(fsys, "out/ref.bin", segs, data)
	})
	if err != nil {
		ioFail("identity run: %v", err)
	}

	st := stats[0]
	id.Ranks, id.Aggregators, id.Writers = ranks, cfg.Aggregators, st.Writers
	id.Bytes = st.Bytes
	id.StripeCount, id.StripeSize = fsys.Stripe("out/agg.bin")
	id.AggOpens, id.MaxConcOpens = st.Opens, st.MaxConcurrentOpens
	id.PerRankOpens = ranks
	id.ShippedBytes = st.ShippedBytes

	readMD5 := func(path string) string {
		raw := make([]byte, fsys.Size(path))
		if err := fsys.ReadAt(path, 0, raw); err != nil {
			ioFail("identity read-back: %v", err)
		}
		sum := md5.Sum(raw)
		return hex.EncodeToString(sum[:])
	}
	id.AggMD5 = readMD5("out/agg.bin")
	id.PerRankMD5 = readMD5("out/ref.bin")
	id.FilesEqual = id.AggMD5 == id.PerRankMD5

	ref, err := agg.FileStripeChecksums(fsys, "out/ref.bin")
	if err != nil {
		ioFail("identity stripe checksums: %v", err)
	}
	id.Stripes = len(ref)
	id.StripesEqual = len(ref) == len(st.Stripes)
	for i := range ref {
		if !id.StripesEqual || st.Stripes[i] != ref[i] {
			id.StripesEqual = false
			break
		}
	}
	return id
}

// ioModelCurve is the perfmodel reproduction of §IV.E: the M8 job on
// Jaguar with per-rank output (the 49% regime) vs the aggregated path
// with 670 writer ranks (<2%).
func ioModelCurve() []ioModelRow {
	v72, _ := perfmodel.VersionByName("7.2")
	var rows []ioModelRow
	for _, cores := range []int{65610, 105456, 150120, 223074} {
		aggJob := perfmodel.M8Job(v72)
		aggJob.Cores = cores
		perRank := aggJob
		perRank.Version.IOAggregated = false
		perRank.WriterRanks = 0
		ba, bp := perfmodel.StepTime(aggJob), perfmodel.StepTime(perRank)
		rows = append(rows, ioModelRow{
			Cores:       cores,
			PerRankFrac: bp.IO / bp.Total(),
			AggFrac:     ba.IO / ba.Total(),
		})
	}
	return rows
}

// ioAggOps builds the aggregated flush op list for a fileBytes-long file
// striped (stripeCount x stripeSize): writers column streams, one open
// each, one contiguous write per stripe row per writer.
func ioAggOps(path string, fileBytes, stripeCount, stripeSize, writers int) []pfs.Op {
	var ops []pfs.Op
	for wr := 0; wr < writers; wr++ {
		c0 := wr * stripeCount / writers
		c1 := (wr + 1) * stripeCount / writers
		first := true
		for rowStart := 0; rowStart < fileBytes; rowStart += stripeCount * stripeSize {
			off := rowStart + c0*stripeSize
			end := rowStart + c1*stripeSize
			if end > fileBytes {
				end = fileBytes
			}
			if off >= fileBytes || end <= off {
				continue
			}
			ops = append(ops, pfs.Op{Path: path, Bytes: end - off, Off: off, Write: true, Open: first})
			first = false
		}
	}
	return ops
}

// ioSweep prices the M8-shaped output scenario on the Jaguar PFS model:
// per rank, `frames` recorded frames over computeSec of compute. The
// per-rank path opens the shared file on every rank at every frame; the
// aggregated path buffers the whole interval and flushes once through a
// throttled writer set.
func ioSweep(short bool) []ioSweepRow {
	ranksSweep := []int{1024, 4096, 16384}
	aggsSweep := []int{64, 256, 670}
	stripes := [][2]int{{256, 1 << 20}, {670, 1 << 20}}
	if short {
		ranksSweep = []int{1024, 4096}
		aggsSweep = []int{64, 670}
		stripes = stripes[:1]
	}
	const (
		frames       = 20
		bytesPerRank = 128 << 10 // buffered per rank per interval
		computeSec   = 10.0      // compute between flushes (M8-like step rate)
		throttle     = agg.DefaultOpenThrottle
	)
	var rows []ioSweepRow
	for _, P := range ranksSweep {
		for _, sc := range stripes {
			fsys := pfs.New(pfs.Jaguar())
			fsys.SetStripe("m8/", sc[0], sc[1])
			if err := fsys.WriteAt("m8/surface.bin", 0, []byte{0}); err != nil {
				ioFail("sweep: %v", err)
			}
			fileBytes := P * bytesPerRank

			// Per-rank path: every frame, every rank opens and writes its
			// own 1/frames share.
			frameOps := make([]pfs.Op, P)
			per := bytesPerRank / frames
			for r := 0; r < P; r++ {
				frameOps[r] = pfs.Op{Path: "m8/surface.bin", Bytes: per, Off: r * per, Write: true, Open: true}
			}
			perFrame := fsys.SimulatePhase(frameOps)
			perRankSec := perFrame.Elapsed * frames

			for _, A := range aggsSweep {
				writers := A
				if writers > sc[0] {
					writers = sc[0]
				}
				aggOps := ioAggOps("m8/surface.bin", fileBytes, sc[0], sc[1], writers)
				aggPhase, waves := agg.ThrottledPhase(fsys, aggOps, throttle)
				maxConc := writers
				if maxConc > throttle {
					maxConc = throttle
				}
				rows = append(rows, ioSweepRow{
					Ranks: P, Aggregators: A, Writers: writers,
					StripeCount: sc[0], StripeSize: sc[1], Throttle: throttle,
					BytesPerRank: bytesPerRank, ComputeSec: computeSec,
					PerRankSec:  perRankSec,
					AggSec:      aggPhase.Elapsed,
					PerRankOver: perRankSec / (perRankSec + computeSec),
					AggOver:     aggPhase.Elapsed / (aggPhase.Elapsed + computeSec),
					AggOpens:    writers, MaxConcOpens: maxConc, Waves: waves,
				})
			}
		}
	}
	return rows
}

// ioCliff sweeps the concurrent-open count across the MDS comfort limit:
// raw synchronized opens degrade quadratically past 650; the same ops in
// throttled waves stay on the linear branch.
func ioCliff() []ioCliffRow {
	var rows []ioCliffRow
	for _, n := range []int{64, 256, 650, 1300, 2600, 4096} {
		fsys := pfs.New(pfs.Jaguar())
		fsys.SetStripe("m8/", 670, 1<<20)
		if err := fsys.WriteAt("m8/mesh.bin", 0, []byte{0}); err != nil {
			ioFail("cliff: %v", err)
		}
		ops := make([]pfs.Op, n)
		for i := range ops {
			ops[i] = pfs.Op{Path: "m8/mesh.bin", Bytes: 64 << 10, Off: i * (64 << 10), Open: true}
		}
		raw := fsys.SimulatePhase(ops)
		thr, waves := agg.ThrottledPhase(fsys, ops, agg.DefaultOpenThrottle)
		maxConc := n
		if maxConc > agg.DefaultOpenThrottle {
			maxConc = agg.DefaultOpenThrottle
		}
		rows = append(rows, ioCliffRow{
			Opens:            n,
			RawSec:           raw.Elapsed,
			RawPerOpenUs:     raw.MDSTime / float64(n) * 1e6,
			ThrottledSec:     thr.Elapsed,
			ThrottledWaves:   waves,
			ThrottledMaxConc: maxConc,
		})
	}
	return rows
}

// ioMeshgen runs the real extraction both ways across an NZ sweep: the
// streamed out-of-core pipeline must match the one-shot generator bit for
// bit while its peak live bytes per core stay pinned to the chunk size.
func ioMeshgen(short bool) []ioMeshgenRow {
	nzs := []int{16, 48, 96}
	if short {
		nzs = []int{16, 32}
	}
	var rows []ioMeshgenRow
	for _, nz := range nzs {
		g := grid.Dims{NX: 12, NY: 8, NZ: nz}
		q := cvm.SoCal(float64(g.NX)*100, float64(g.NY)*100, float64(g.NZ)*100, 400)
		sp := meshgen.Spec{Path: "mesh/one.bin", Global: g, H: 100, Cores: 4}
		md5Of := func(fsys *pfs.FS, path string) string {
			raw := make([]byte, fsys.Size(path))
			if err := fsys.ReadAt(path, 0, raw); err != nil {
				ioFail("meshgen read-back: %v", err)
			}
			sum := md5.Sum(raw)
			return hex.EncodeToString(sum[:])
		}

		oneFS := pfs.New(pfs.Jaguar())
		oneFS.SetStripe("mesh/", 8, 2<<10)
		if _, err := meshgen.Generate(oneFS, q, sp); err != nil {
			ioFail("meshgen one-shot: %v", err)
		}

		strFS := pfs.New(pfs.Jaguar())
		strFS.SetStripe("mesh/", 8, 2<<10)
		ssp := meshgen.StreamSpec{Spec: sp, ChunkPlanes: 2, Agg: agg.Config{Aggregators: 4}}
		ssp.Path = "mesh/stream.bin"
		st, err := meshgen.GenerateStreamed(strFS, q, ssp)
		if err != nil {
			ioFail("meshgen streamed: %v", err)
		}

		row := ioMeshgenRow{
			NZ:            nz,
			MeshBytes:     g.Cells() * meshgen.RecBytes,
			PeakCoreBytes: st.PeakCoreBytes,
			Rounds:        st.Rounds,
			Writers:       st.Writers,
			Opens:         st.Opens,
			OneShotMD5:    md5Of(oneFS, "mesh/one.bin"),
			StreamedMD5:   md5Of(strFS, "mesh/stream.bin"),
		}
		row.Identical = row.OneShotMD5 == row.StreamedMD5
		rows = append(rows, row)
	}
	return rows
}

// ioExp benchmarks the two-phase aggregated I/O path: real-byte identity
// of the aggregated and per-rank files (checksummed end to end), the
// perfmodel and simulated-PFS reproductions of the paper's 49%->2%
// overhead collapse, the MDS-degradation cliff with and without the open
// throttle, and the out-of-core streaming mesh pipeline's bounded-memory
// guarantee. Writes BENCH_9.json (or outPath).
func ioExp(outPath string, short bool) {
	header("Two-phase aggregated I/O and out-of-core streaming (§IV.E)")
	rep := ioReport{
		GeneratedBy: "cmd/benchtab -exp io",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Caveat: "identity and meshgen sections move real bytes through the real aggregator on the " +
			"simulated PFS; sweep and cliff sections are virtual-time prices from the pfs Lustre " +
			"model (670 OSTs, 32 MB/s/OST, MDS quadratic past 650 opens) — they reproduce the " +
			"paper's overhead *shape*, not wall-clock on real hardware",
		GatesEnforced: !short,
	}
	fmt.Printf("GOMAXPROCS=%d NumCPU=%d\n", rep.GOMAXPROCS, rep.NumCPU)

	// --- end-to-end checksum identity (real bytes, always enforced) ---
	rep.Identity = ioIdentityRun()
	id := rep.Identity
	fmt.Printf("\nidentity: %d ranks -> %d writers, %d bytes, stripe %dx%d\n",
		id.Ranks, id.Writers, id.Bytes, id.StripeCount, id.StripeSize)
	fmt.Printf("  agg md5 %s  per-rank md5 %s  files equal %v\n", id.AggMD5, id.PerRankMD5, id.FilesEqual)
	fmt.Printf("  %d stripes, write-time checksums equal on-disk reference: %v\n", id.Stripes, id.StripesEqual)
	fmt.Printf("  opens %d (per-rank path: %d), max concurrent %d, shipped %d bytes\n",
		id.AggOpens, id.PerRankOpens, id.MaxConcOpens, id.ShippedBytes)
	if !id.FilesEqual || !id.StripesEqual {
		ioFail("aggregated file not bit-identical to per-rank reference")
	}
	if id.MaxConcOpens > agg.DefaultOpenThrottle {
		ioFail("identity run exceeded the open throttle: %d", id.MaxConcOpens)
	}

	// --- perfmodel 49% -> <2% curve ---
	rep.Model = ioModelCurve()
	fmt.Printf("\n%-9s %18s %14s  (M8 on Jaguar, perfmodel)\n", "cores", "per-rank IO frac", "agg IO frac")
	for _, r := range rep.Model {
		fmt.Printf("%-9d %18.3f %14.4f\n", r.Cores, r.PerRankFrac, r.AggFrac)
	}

	// --- virtual overhead sweep on the simulated Lustre ---
	rep.Sweep = ioSweep(short)
	fmt.Printf("\n%-7s %6s %8s %11s %9s %12s %12s %9s %6s\n",
		"ranks", "aggs", "writers", "stripe", "throttle", "per-rank ovh", "agg ovh", "maxconc", "waves")
	for _, r := range rep.Sweep {
		fmt.Printf("%-7d %6d %8d %7dx%-3s %9d %11.1f%% %11.2f%% %9d %6d\n",
			r.Ranks, r.Aggregators, r.Writers, r.StripeCount, "1M", r.Throttle,
			100*r.PerRankOver, 100*r.AggOver, r.MaxConcOpens, r.Waves)
	}

	// --- MDS cliff ---
	rep.Cliff = ioCliff()
	fmt.Printf("\n%-7s %12s %16s %14s %7s  (MDS cliff at %d opens)\n",
		"opens", "raw s", "raw us/open", "throttled s", "waves", agg.DefaultOpenThrottle)
	for _, r := range rep.Cliff {
		fmt.Printf("%-7d %12.5f %16.2f %14.5f %7d\n",
			r.Opens, r.RawSec, r.RawPerOpenUs, r.ThrottledSec, r.ThrottledWaves)
	}

	// --- streaming out-of-core meshgen (real bytes, identity enforced) ---
	rep.Meshgen = ioMeshgen(short)
	fmt.Printf("\n%-5s %11s %10s %7s %7s %6s %10s\n",
		"NZ", "mesh bytes", "peak/core", "rounds", "writers", "opens", "identical")
	for _, r := range rep.Meshgen {
		fmt.Printf("%-5d %11d %10d %7d %7d %6d %10v\n",
			r.NZ, r.MeshBytes, r.PeakCoreBytes, r.Rounds, r.Writers, r.Opens, r.Identical)
		if !r.Identical {
			ioFail("NZ=%d: streamed mesh differs from one-shot generator", r.NZ)
		}
	}
	for _, r := range rep.Meshgen[1:] {
		if r.PeakCoreBytes != rep.Meshgen[0].PeakCoreBytes {
			ioFail("peak core bytes grew with NZ: %d at NZ=%d vs %d at NZ=%d",
				r.PeakCoreBytes, r.NZ, rep.Meshgen[0].PeakCoreBytes, rep.Meshgen[0].NZ)
		}
	}

	// --- full-mode gates: the paper's overhead shape, throttle ceiling ---
	if rep.GatesEnforced {
		sawStorm := false
		for _, r := range rep.Sweep {
			if r.MaxConcOpens > r.Throttle {
				ioFail("sweep point ranks=%d aggs=%d: %d concurrent opens > throttle %d",
					r.Ranks, r.Aggregators, r.MaxConcOpens, r.Throttle)
			}
			if r.PerRankOver >= 0.30 {
				sawStorm = true
				if r.AggOver >= 0.05 {
					ioFail("ranks=%d aggs=%d: per-rank overhead %.1f%% but aggregated %.1f%% >= 5%%",
						r.Ranks, r.Aggregators, 100*r.PerRankOver, 100*r.AggOver)
				}
			}
		}
		if !sawStorm {
			ioFail("no sweep point reached 30%% per-rank overhead — the 49%%->2%% gate is vacuous")
		}
		last := rep.Model[len(rep.Model)-1]
		if last.PerRankFrac < 0.30 || last.AggFrac >= 0.05 {
			ioFail("model curve at %d cores: per-rank %.3f / agg %.4f, want >=0.30 / <0.05",
				last.Cores, last.PerRankFrac, last.AggFrac)
		}
		var at650, atMax ioCliffRow
		for _, r := range rep.Cliff {
			if r.Opens == agg.DefaultOpenThrottle {
				at650 = r
			}
			if r.Opens > atMax.Opens {
				atMax = r
			}
		}
		if atMax.RawPerOpenUs < 2*at650.RawPerOpenUs {
			ioFail("no MDS cliff: %.2f us/open at %d vs %.2f at 650",
				atMax.RawPerOpenUs, atMax.Opens, at650.RawPerOpenUs)
		}
		if atMax.ThrottledSec >= atMax.RawSec {
			ioFail("throttle did not flatten the cliff at %d opens (%.5fs vs %.5fs)",
				atMax.Opens, atMax.ThrottledSec, atMax.RawSec)
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		ioFail("%v", err)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		ioFail("%v", err)
	}
	fmt.Printf("\nreport written to %s\n", outPath)
}

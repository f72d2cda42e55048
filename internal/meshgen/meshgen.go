// Package meshgen implements CVM2MESH (§III.B): parallel extraction of
// material properties from a community velocity model onto a uniform mesh
// file. The mesh region is partitioned into z slices; each core queries
// the CVM for its slices only and writes them into the single global mesh
// file at computed offsets via MPI-IO — the scheme that cut extraction
// from hundreds of hours to minutes.
//
// GenerateStreamed is the out-of-core M8 pipeline: cores hold at most
// ChunkPlanes z-planes at a time — peak live mesh bytes per core are
// O(chunk), independent of NZ — and each round's chunks are written
// collectively through the internal/agg two-phase aggregator, so the file
// sees a few large stripe-aligned streams instead of one stream per core.
package meshgen

import (
	"fmt"

	"repro/internal/agg"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
)

// RecBytes is the mesh record size: three float32 (Vp, Vs, rho) per point.
const RecBytes = 12

// Spec describes a mesh extraction job.
type Spec struct {
	Path   string // mesh file path on the simulated PFS
	Global grid.Dims
	H      float64 // grid spacing, m
	Cores  int     // extraction cores (z-slice parallelism)
}

// Stats reports the extraction outcome.
type Stats struct {
	Points     int
	Bytes      int
	WritePhase pfs.PhaseStats
}

func (sp Spec) check() error {
	if sp.Cores <= 0 || sp.Cores > sp.Global.NZ {
		return fmt.Errorf("meshgen: cores %d must be in [1, NZ=%d]", sp.Cores, sp.Global.NZ)
	}
	if !sp.Global.Valid() || sp.H <= 0 {
		return fmt.Errorf("meshgen: invalid spec %+v", sp)
	}
	return nil
}

// extractPlane appends plane k of the mesh (x fastest, then y) to b as
// records, an x-row per cvm.QueryRow call — the one place that defines the
// record layout.
func extractPlane(q cvm.Querier, sp Spec, k int, b []byte) []byte {
	xs, mats := make([]float64, sp.Global.NX), make([]cvm.Material, sp.Global.NX)
	for i := range xs {
		xs[i] = float64(i) * sp.H
	}
	for j := 0; j < sp.Global.NY; j++ {
		cvm.QueryRow(q, float64(j)*sp.H, float64(k)*sp.H, xs, mats)
		b = appendRecords(b, mats)
	}
	return b
}

// StreamSpec tunes the out-of-core streaming extraction.
type StreamSpec struct {
	Spec
	// ChunkPlanes is the most z-planes one core materializes at a time
	// (the out-of-core bound). <= 0 means 1.
	ChunkPlanes int
	// Agg tunes the collective aggregated write of each round.
	Agg agg.Config
}

// StreamStats extends Stats with the streaming pipeline's accounting.
type StreamStats struct {
	Stats
	Rounds             int // collective write rounds
	PeakCoreBytes      int // max live mesh bytes on any one core at any time
	Writers            int // aggregator ranks per round
	Opens              int // file opens, summed over rounds
	MaxConcurrentOpens int // max opens in flight at any point of any round
}

// GenerateStreamed extracts the mesh out-of-core: cores sweep the z
// range in rounds of Cores×ChunkPlanes planes, each core holding only
// its current chunk, and every round is written collectively through the
// two-phase aggregator. The file does not depend on Cores or ChunkPlanes.
func GenerateStreamed(fsys *pfs.FS, q cvm.Querier, ssp StreamSpec) (StreamStats, error) {
	sp := ssp.Spec
	if err := sp.check(); err != nil {
		return StreamStats{}, err
	}
	chunk := ssp.ChunkPlanes
	if chunk <= 0 {
		chunk = 1
	}
	planeBytes := sp.Global.NX * sp.Global.NY * RecBytes
	stride := sp.Cores * chunk
	rounds := (sp.Global.NZ + stride - 1) / stride

	peaks := make([]int, sp.Cores)
	var st StreamStats
	st.Points = sp.Global.Cells()
	st.Bytes = sp.Global.Cells() * RecBytes
	st.Rounds = rounds

	fsys.Reserve(sp.Path, st.Bytes)
	world := mpi.NewWorld(sp.Cores)
	err := world.RunErr(func(c *mpi.Comm) error {
		rank := c.Rank()
		buf := make([]byte, 0, chunk*planeBytes)
		for round := 0; round < rounds; round++ {
			k0 := round*stride + rank*chunk
			k1 := k0 + chunk
			if k0 > sp.Global.NZ {
				k0 = sp.Global.NZ
			}
			if k1 > sp.Global.NZ {
				k1 = sp.Global.NZ
			}
			data := buf[:0]
			for k := k0; k < k1; k++ {
				data = extractPlane(q, sp, k, data)
			}
			var segs []mpiio.Segment
			if k1 > k0 {
				segs = []mpiio.Segment{{Off: k0 * planeBytes, Len: (k1 - k0) * planeBytes}}
			}
			if live := len(data); live > peaks[rank] {
				peaks[rank] = live
			}
			ws, err := agg.WriteIndexed(c, fsys, sp.Path, segs, data, ssp.Agg)
			if err != nil {
				return fmt.Errorf("meshgen: round %d: %w", round, err)
			}
			if rank == 0 {
				st.Writers = ws.Writers
				st.Opens += ws.Opens
				if ws.MaxConcurrentOpens > st.MaxConcurrentOpens {
					st.MaxConcurrentOpens = ws.MaxConcurrentOpens
				}
				st.WritePhase.Elapsed += ws.Phase.Elapsed
				st.WritePhase.MDSTime += ws.Phase.MDSTime
				st.WritePhase.IOTime += ws.Phase.IOTime
				st.WritePhase.Bytes += ws.Phase.Bytes
				if ws.Phase.MaxOSTLoad > st.WritePhase.MaxOSTLoad {
					st.WritePhase.MaxOSTLoad = ws.Phase.MaxOSTLoad
				}
			}
		}
		return nil
	})
	if err != nil {
		return StreamStats{}, err
	}
	for _, p := range peaks {
		if p > st.PeakCoreBytes {
			st.PeakCoreBytes = p
		}
	}
	if st.WritePhase.Elapsed > 0 {
		st.WritePhase.Throughput = float64(st.WritePhase.Bytes) / st.WritePhase.Elapsed
	}
	return st, nil
}

// Package meshgen implements CVM2MESH (§III.B): parallel extraction of
// material properties from a community velocity model onto a uniform mesh
// file. The mesh region is partitioned into z slices; each core queries
// the CVM for its slices only and writes them into the single global mesh
// file at computed offsets via MPI-IO — the scheme that cut extraction
// from hundreds of hours to minutes.
//
// Two write paths are provided. Generate is the original one-shot path:
// each core materializes all of its planes and writes them itself (one
// open per core). GenerateStreamed is the out-of-core M8 pipeline: cores
// hold at most ChunkPlanes z-planes at a time — peak live mesh bytes per
// core are O(chunk), independent of NZ — and each round's chunks are
// written collectively through the internal/agg two-phase aggregator, so
// the file sees a few large stripe-aligned streams instead of one stream
// per core.
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

// extractPlane fills vals with plane k of the mesh (x fastest, then y), an
// x-row per cvm.QueryRow call — the one place that defines the record
// layout, shared by both write paths so they are bit-identical.
func extractPlane(q cvm.Querier, sp Spec, k int, vals []float32) {
	xs, mats := make([]float64, sp.Global.NX), make([]cvm.Material, sp.Global.NX)
	for i := range xs {
		xs[i] = float64(i) * sp.H
	}
	idx := 0
	for j := 0; j < sp.Global.NY; j++ {
		cvm.QueryRow(q, float64(j)*sp.H, float64(k)*sp.H, xs, mats)
		for _, m := range mats {
			vals[idx] = float32(m.Vp)
			vals[idx+1] = float32(m.Vs)
			vals[idx+2] = float32(m.Rho)
			idx += 3
		}
	}
}

// Generate extracts the mesh in parallel and writes the global mesh file,
// one writer stream per core. A failed plane write (after the bounded
// retry of the indexed-write path) fails the whole extraction.
func Generate(fsys *pfs.FS, q cvm.Querier, sp Spec) (Stats, error) {
	if err := sp.check(); err != nil {
		return Stats{}, err
	}
	planeBytes := sp.Global.NX * sp.Global.NY * RecBytes
	views := make([][]mpiio.Segment, sp.Cores)

	world := mpi.NewWorld(sp.Cores)
	err := world.RunErr(func(c *mpi.Comm) error {
		rank := c.Rank()
		var view []mpiio.Segment
		vals := make([]float32, sp.Global.NX*sp.Global.NY*3)
		// Round-robin z-slice assignment.
		for k := rank; k < sp.Global.NZ; k += sp.Cores {
			extractPlane(q, sp, k, vals)
			// Seek to the slice offset and write — one contiguous chunk.
			seg := []mpiio.Segment{{Off: k * planeBytes, Len: planeBytes}}
			if err := mpiio.WriteIndexed(fsys, sp.Path, seg, mpiio.PutFloat32s(vals)); err != nil {
				return fmt.Errorf("meshgen: plane %d: %w", k, err)
			}
			view = append(view, seg[0])
		}
		views[rank] = view
		return nil
	})
	if err != nil {
		return Stats{}, err
	}

	st := Stats{
		Points: sp.Global.Cells(),
		Bytes:  sp.Global.Cells() * RecBytes,
	}
	st.WritePhase = fsys.SimulatePhase(mpiio.PhaseOps(sp.Path, views, true))
	return st, nil
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
	Writes             int // coalesced writes issued, summed over rounds
	Opens              int // file opens, summed over rounds
	MaxConcurrentOpens int // max opens in flight at any point of any round
	ShippedBytes       int // bytes shipped core→aggregator, summed over rounds
}

// GenerateStreamed extracts the mesh out-of-core: cores sweep the z
// range in rounds of Cores×ChunkPlanes planes, each core holding only
// its current chunk, and every round is written collectively through the
// two-phase aggregator. The file is bit-identical to Generate's.
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

	world := mpi.NewWorld(sp.Cores)
	err := world.RunErr(func(c *mpi.Comm) error {
		rank := c.Rank()
		vals := make([]float32, 0, chunk*sp.Global.NX*sp.Global.NY*3)
		for round := 0; round < rounds; round++ {
			k0 := round*stride + rank*chunk
			k1 := k0 + chunk
			if k0 > sp.Global.NZ {
				k0 = sp.Global.NZ
			}
			if k1 > sp.Global.NZ {
				k1 = sp.Global.NZ
			}
			vals = vals[:(k1-k0)*sp.Global.NX*sp.Global.NY*3]
			for k := k0; k < k1; k++ {
				extractPlane(q, sp, k, vals[(k-k0)*sp.Global.NX*sp.Global.NY*3:(k-k0+1)*sp.Global.NX*sp.Global.NY*3])
			}
			var segs []mpiio.Segment
			var data []byte
			if k1 > k0 {
				segs = []mpiio.Segment{{Off: k0 * planeBytes, Len: (k1 - k0) * planeBytes}}
				data = mpiio.PutFloat32s(vals)
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
				st.Writes += ws.Writes
				st.Opens += ws.Opens
				st.ShippedBytes += ws.ShippedBytes
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

// ReadPoint fetches one mesh record, for verification.
func ReadPoint(fsys *pfs.FS, path string, g grid.Dims, i, j, k int) (cvm.Material, error) {
	off := ((k*g.NY+j)*g.NX + i) * RecBytes
	buf := make([]byte, RecBytes)
	if err := fsys.ReadAt(path, off, buf); err != nil {
		return cvm.Material{}, err
	}
	v := mpiio.GetFloat32s(buf)
	return cvm.Material{Vp: float64(v[0]), Vs: float64(v[1]), Rho: float64(v[2])}, nil
}

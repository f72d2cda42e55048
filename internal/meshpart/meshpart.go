// Package meshpart implements PetaMeshP (§III.C): partitioning the single
// global mesh file onto the solver ranks. Both of the paper's I/O models
// are provided:
//
//   - Serial pre-partitioning: per-rank files written once before the run
//     (excellent locality; risks metadata storms at high rank counts);
//   - On-demand MPI-IO partitioning: a subset of "reader" ranks read
//     highly contiguous XY-plane chunks and redistribute sub-rectangles to
//     the "receiver" ranks with point-to-point messages, each receiver
//     assembling its padded local cube.
//
// Each rank's product is the ghost-padded (vp, vs, rho) arrays its solver
// needs, with edge clamping identical to direct CVM extraction, so all
// three paths (direct, pre-partitioned, on-demand) agree exactly.
package meshpart

import (
	"errors"
	"fmt"

	"repro/internal/agg"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/meshgen"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/pfs"
)

// SubMesh is one rank's ghost-padded material arrays, in grid.Field3
// padded layout (x-fastest over the padded extents).
type SubMesh struct {
	Dims        grid.Dims // interior dims
	VP, VS, Rho []float32 // padded arrays
}

// paddedLen returns the padded array length for interior dims d.
func paddedLen(d grid.Dims) int {
	g := grid.Ghost
	return (d.NX + 2*g) * (d.NY + 2*g) * (d.NZ + 2*g)
}

// clamp returns the in-range global index for a padded (possibly ghost)
// index — replicating the coordinate clamping of direct CVM extraction.
func clamp(g, n int) int {
	if g < 0 {
		return 0
	}
	if g >= n {
		return n - 1
	}
	return g
}

// PartFileName is the per-rank pre-partitioned file naming scheme.
func PartFileName(dir string, rank int) string {
	return fmt.Sprintf("%s/submesh.%06d", dir, rank)
}

// writePart encodes one rank's padded sub-mesh (VP‖VS‖Rho) into one byte
// image, in image's storage when it holds the image, and writes it as the
// rank's file with bounded retry, returning the byte count. The file is
// reserved first, so it is allocated once whatever a short write and its
// retry leave behind.
func writePart(fsys *pfs.FS, path string, sm SubMesh, image []byte) (int, error) {
	raw := appendFloat32s(appendFloat32s(appendFloat32s(image[:0], sm.VP), sm.VS), sm.Rho)
	fsys.Reserve(path, len(raw))
	retry := pfs.DefaultRetry()
	if err := retry.Do(func() error { return fsys.WriteAt(path, 0, raw) }); err != nil {
		return 0, fmt.Errorf("meshpart: write %s: %w", path, err)
	}
	return len(raw), nil
}

// StreamStats reports the out-of-core partitioner's accounting.
type StreamStats struct {
	PeakBytes int // max live mesh bytes held at any time
	Waves     int // open-throttle waves of the priced write phase
}

// StreamPrePartition is the out-of-core pre-partitioner (I/O model 1):
// instead of materializing the whole global mesh (O(NX·NY·NZ) — 21 TB for
// the M8 mesh), it reads, for one rank at a time, only the clamped
// ghost-padded block that rank needs, assembles and writes its padded
// sub-mesh file (VP‖VS‖Rho), and moves on. Peak memory is one padded
// sub-block, independent of NZ: one padded sub-mesh and one byte image,
// sized for the largest rank, stage every rank's part in turn. The write
// phase is priced under the concurrent-open throttle (the M8 run kept
// 223,074 part-file opens at ≤650 in flight).
func StreamPrePartition(fsys *pfs.FS, meshPath, outDir string, global grid.Dims, dc decomp.Decomp, throttle int) (pfs.PhaseStats, StreamStats, error) {
	nranks := dc.Topo.Size()
	g := grid.Ghost
	var ops []pfs.Op
	var sst StreamStats
	most := 0
	for r := 0; r < nranks; r++ {
		most = max(most, paddedLen(dc.SubFor(r).Local))
	}
	stage := make([]float32, 3*most)
	image := make([]byte, 3*4*most)
	for r := 0; r < nranks; r++ {
		sub := dc.SubFor(r)
		k0 := clamp(sub.OffZ-g, global.NZ)
		k1 := clamp(sub.OffZ+sub.Local.NZ+g-1, global.NZ)
		j0 := clamp(sub.OffY-g, global.NY)
		j1 := clamp(sub.OffY+sub.Local.NY+g-1, global.NY)
		i0 := clamp(sub.OffX-g, global.NX)
		i1 := clamp(sub.OffX+sub.Local.NX+g-1, global.NX)
		segs := mpiio.BlockSegments(global, i0, i1+1, j0, j1+1, k0, k1+1, meshgen.RecBytes)
		raw, err := mpiio.ReadIndexed(fsys, meshPath, segs)
		if err != nil {
			return pfs.PhaseStats{}, sst, fmt.Errorf("meshpart: rank %d block: %w", r, err)
		}
		// Each row is decoded from the block's bytes when extract asks for it.
		nxr, nyr := i1-i0+1, j1-j0+1
		recs := make([]float32, 3*nxr)
		np := paddedLen(sub.Local)
		sm := SubMesh{Dims: sub.Local, VP: stage[:np], VS: stage[most:][:np], Rho: stage[2*most:][:np]}
		extract(global, sub, sm.VP, sm.VS, sm.Rho, func(gj, gk int) ([]float32, int) {
			decodeFloat32s(recs, raw[((gk-k0)*nyr+(gj-j0))*nxr*meshgen.RecBytes:])
			return recs, i0
		})
		path := PartFileName(outDir, r)
		n, err := writePart(fsys, path, sm, image)
		if err != nil {
			return pfs.PhaseStats{}, sst, err
		}
		// Live set: the read block plus the assembled padded arrays and
		// their byte image.
		if live := len(raw) + 3*len(sm.VP)*4*2; live > sst.PeakBytes {
			sst.PeakBytes = live
		}
		ops = append(ops, pfs.Op{Path: path, Bytes: n, Write: true, Open: true})
	}
	st, waves := agg.ThrottledPhase(fsys, ops, throttle)
	sst.Waves = waves
	return st, sst, nil
}

// OnDemand performs the reader/receiver MPI-IO partitioning (I/O model 2):
// the first nReaders ranks read whole XY planes (optionally split in y by
// subdivision factor ySplit >= 1) and send each receiver the sub-rectangle
// it needs; every rank returns its padded sub-mesh. The returned phase
// stats price the reader I/O.
func OnDemand(fsys *pfs.FS, meshPath string, global grid.Dims, dc decomp.Decomp, nReaders, ySplit int) ([]SubMesh, pfs.PhaseStats, error) {
	nranks := dc.Topo.Size()
	if nReaders <= 0 || nReaders > nranks {
		return nil, pfs.PhaseStats{}, fmt.Errorf("meshpart: nReaders %d outside [1,%d]", nReaders, nranks)
	}
	if ySplit <= 0 {
		ySplit = 1
	}
	planeBytes := global.NX * global.NY * meshgen.RecBytes
	out := make([]SubMesh, nranks)
	views := make([][]mpiio.Segment, nReaders)
	readErrs := make([]error, nReaders)

	world := mpi.NewWorld(nranks)
	runErr := world.RunErr(func(c *mpi.Comm) error {
		rank := c.Rank()
		sub := dc.SubFor(rank)
		g := grid.Ghost

		// Receiver bookkeeping: global plane range needed (clamped).
		k0 := clamp(sub.OffZ-g, global.NZ)
		k1 := clamp(sub.OffZ+sub.Local.NZ+g-1, global.NZ)
		j0 := clamp(sub.OffY-g, global.NY)
		j1 := clamp(sub.OffY+sub.Local.NY+g-1, global.NY)
		i0 := clamp(sub.OffX-g, global.NX)
		i1 := clamp(sub.OffX+sub.Local.NX+g-1, global.NX)

		// Phase 1: readers read their planes and push sub-rectangles.
		if rank < nReaders {
			var view []mpiio.Segment
			for k := rank; k < global.NZ; k += nReaders {
				for ys := 0; ys < ySplit; ys++ {
					yb := ys * global.NY / ySplit
					ye := (ys + 1) * global.NY / ySplit
					segLen := (ye - yb) * global.NX * meshgen.RecBytes
					segOff := k*planeBytes + yb*global.NX*meshgen.RecBytes
					raw, err := mpiio.ReadIndexed(fsys, meshPath, []mpiio.Segment{{Off: segOff, Len: segLen}})
					if err != nil {
						// Abort, so the receivers waiting on this reader's
						// rectangles unwind instead of blocking forever.
						readErrs[rank] = fmt.Errorf("meshpart: reader %d: %w", rank, err)
						world.Abort()
						return readErrs[rank]
					}
					view = append(view, mpiio.Segment{Off: segOff, Len: segLen})
					// Distribute to every receiver whose padded range needs
					// rows in [yb, ye) of plane k.
					for r := 0; r < nranks; r++ {
						rs := dc.SubFor(r)
						rk0 := clamp(rs.OffZ-g, global.NZ)
						rk1 := clamp(rs.OffZ+rs.Local.NZ+g-1, global.NZ)
						if k < rk0 || k > rk1 {
							continue
						}
						rj0 := clamp(rs.OffY-g, global.NY)
						rj1 := clamp(rs.OffY+rs.Local.NY+g-1, global.NY)
						ri0 := clamp(rs.OffX-g, global.NX)
						ri1 := clamp(rs.OffX+rs.Local.NX+g-1, global.NX)
						ly0, ly1 := max(rj0, yb), min(rj1, ye-1)
						if ly0 > ly1 {
							continue
						}
						// Payload: plane and rows (k, ly0, ly1), then the
						// rows' records over the receiver's x range, each
						// decoded from the bytes read.
						cols := 3 * (ri1 - ri0 + 1)
						rect := make([]float32, 3+(ly1-ly0+1)*cols)
						rect[0], rect[1], rect[2] = float32(k), float32(ly0), float32(ly1)
						for j := ly0; j <= ly1; j++ {
							decodeFloat32s(rect[3+(j-ly0)*cols:][:cols], raw[((j-yb)*global.NX+ri0)*meshgen.RecBytes:])
						}
						c.SendOwned(r, 7000+k*ySplit+ys, rect)
					}
				}
			}
			views[rank] = view
		}

		// Phase 2: every rank receives its rectangles and assembles the
		// padded cube, finding one rectangle a row.
		type rectangle struct {
			j0, j1 int
			vals   []float32 // rows j0..j1 of records over x i0..i1
		}
		planes := make([][]rectangle, k1-k0+1) // global k-k0 -> rectangles
		expected := 0
		for k := k0; k <= k1; k++ {
			for ys := 0; ys < ySplit; ys++ {
				yb := ys * global.NY / ySplit
				ye := (ys + 1) * global.NY / ySplit
				if max(j0, yb) <= min(j1, ye-1) {
					expected++
				}
			}
		}
		for e := 0; e < expected; e++ {
			v := c.MustRecvTake(mpi.AnySource, mpi.AnyTag)
			k := int(v[0])
			planes[k-k0] = append(planes[k-k0], rectangle{j0: int(v[1]), j1: int(v[2]), vals: v[3:]})
		}
		cols := 3 * (i1 - i0 + 1)
		row := func(gj, gk int) ([]float32, int) {
			for _, p := range planes[gk-k0] {
				if gj >= p.j0 && gj <= p.j1 {
					return p.vals[(gj-p.j0)*cols:][:cols], i0
				}
			}
			panic(fmt.Sprintf("meshpart: rank %d missing row (%d,%d)", rank, gj, gk))
		}
		np := paddedLen(sub.Local)
		sm := SubMesh{Dims: sub.Local, VP: make([]float32, np), VS: make([]float32, np), Rho: make([]float32, np)}
		extract(global, sub, sm.VP, sm.VS, sm.Rho, row)
		out[rank] = sm
		return nil
	})
	if err := errors.Join(readErrs...); err != nil {
		return nil, pfs.PhaseStats{}, err
	}
	if runErr != nil {
		return nil, pfs.PhaseStats{}, runErr
	}
	readStats := fsys.SimulatePhase(mpiio.PhaseOps(meshPath, views, false))
	return out, readStats, nil
}

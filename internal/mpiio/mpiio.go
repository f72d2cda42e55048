// Package mpiio provides the MPI-IO-style collective access layer AWP-ODC
// uses for mesh input and velocity output (§III.E): indexed file views
// (segment lists describing a rank's 3D sub-block of a global record
// file), explicit-offset reads/writes with no shared file pointers, and
// collective-phase cost accounting against the simulated parallel file
// system.
package mpiio

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/pfs"
	"repro/internal/telemetry"
)

// Segment is one contiguous byte range of a file view.
type Segment struct {
	Off, Len int
}

// BlockSegments builds the file view for the sub-block
// [i0,i1)x[j0,j1)x[k0,k1) of a global x-fastest record file with rec bytes
// per grid point: one segment per contiguous x-run — the "new indexed data
// types representing segmented output blocks" of §III.E.
func BlockSegments(g grid.Dims, i0, i1, j0, j1, k0, k1, rec int) []Segment {
	if i0 < 0 || i1 > g.NX || j0 < 0 || j1 > g.NY || k0 < 0 || k1 > g.NZ || i1 <= i0 || j1 <= j0 || k1 <= k0 {
		panic(fmt.Sprintf("mpiio: block [%d,%d)x[%d,%d)x[%d,%d) invalid for %v", i0, i1, j0, j1, k0, k1, g))
	}
	segs := make([]Segment, 0, (j1-j0)*(k1-k0))
	rowLen := (i1 - i0) * rec
	for k := k0; k < k1; k++ {
		for j := j0; j < j1; j++ {
			off := ((k*g.NY+j)*g.NX + i0) * rec
			segs = append(segs, Segment{Off: off, Len: rowLen})
		}
	}
	return segs
}

// TotalLen returns the byte length of a view.
func TotalLen(segs []Segment) int {
	n := 0
	for _, s := range segs {
		n += s.Len
	}
	return n
}

// WriteIndexed writes data through the view with explicit displacements.
// Each segment write retries transient PFS faults with bounded
// exponential backoff. An optional telemetry recorder (at most one)
// attributes the wall time to the IO phase; existing call sites need no
// change.
func WriteIndexed(fsys *pfs.FS, path string, segs []Segment, data []byte, rec ...*telemetry.Recorder) error {
	defer ioSpan(rec).End()
	if len(data) != TotalLen(segs) {
		return fmt.Errorf("mpiio: data %d bytes, view %d", len(data), TotalLen(segs))
	}
	retry := pfs.DefaultRetry()
	p := 0
	for _, s := range segs {
		seg := s
		chunk := data[p : p+seg.Len]
		if err := retry.Do(func() error { return fsys.WriteAt(path, seg.Off, chunk) }); err != nil {
			return fmt.Errorf("mpiio: write %s seg [%d,%d): %w", path, seg.Off, seg.Off+seg.Len, err)
		}
		p += s.Len
	}
	return nil
}

// ReadIndexed reads the view into a new buffer. Each segment read retries
// transient PFS faults with the same bounded backoff as WriteIndexed, so
// a single MDS/read hiccup cannot kill a restart. An optional telemetry
// recorder (at most one) attributes the wall time to the IO phase.
func ReadIndexed(fsys *pfs.FS, path string, segs []Segment, rec ...*telemetry.Recorder) ([]byte, error) {
	defer ioSpan(rec).End()
	out := make([]byte, TotalLen(segs))
	retry := pfs.DefaultRetry()
	p := 0
	for _, s := range segs {
		seg := s
		chunk := out[p : p+seg.Len]
		if err := retry.Do(func() error { return fsys.ReadAt(path, seg.Off, chunk) }); err != nil {
			return nil, fmt.Errorf("mpiio: read %s seg [%d,%d): %w", path, seg.Off, seg.Off+seg.Len, err)
		}
		p += s.Len
	}
	return out, nil
}

// ioSpan opens an IO span on the first recorder, if any; a nil recorder
// (or none) yields the no-op span.
func ioSpan(rec []*telemetry.Recorder) telemetry.Span {
	if len(rec) == 0 {
		return telemetry.Span{}
	}
	return rec[0].Span(telemetry.IO)
}

// PhaseOps converts per-rank views into the op list of one collective
// phase (each rank pays one open).
func PhaseOps(path string, views [][]Segment, write bool) []pfs.Op {
	var ops []pfs.Op
	for _, view := range views {
		open := true
		for _, s := range view {
			ops = append(ops, pfs.Op{Path: path, Off: s.Off, Bytes: s.Len, Write: write, Open: open})
			open = false
		}
	}
	return ops
}

// Package srcgen implements the kinematic source tool chain of §III.D:
// dSrcG writes the moment-rate file; PetaSrcP partitions it temporally into
// loops, bounding the per-rank memory high-water mark (M8: the 2.1 TB
// source fit into 228 MB/core only after splitting into 36 temporal
// segments). The spatial split onto ranks is source.Localize's: each rank
// keeps the sub-faults it owns.
package srcgen

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core/source"
	"repro/internal/pfs"
)

// WriteSourceFile stores sources in the dSrcG binary format: for each
// sub-fault a header (gi, gj, gk, nt, dt) followed by nt records of six
// moment-rate components, every value a little-endian float32, encoded into
// one buffer sized from the sources.
func WriteSourceFile(fsys *pfs.FS, path string, srcs []source.SampledSource) pfs.PhaseStats {
	n := 1
	for i := range srcs {
		n += 5 + 6*len(srcs[i].Rate)
	}
	data := make([]byte, 0, 4*n)
	put := func(vs ...float32) {
		for _, v := range vs {
			data = binary.LittleEndian.AppendUint32(data, math.Float32bits(v))
		}
	}
	put(float32(len(srcs)))
	for i := range srcs {
		s := &srcs[i]
		put(float32(s.GI), float32(s.GJ), float32(s.GK), float32(len(s.Rate)), float32(s.Dt))
		for _, r := range s.Rate {
			put(r[:]...)
		}
	}
	fsys.WriteAt(path, 0, data)
	return fsys.SimulatePhase([]pfs.Op{{Path: path, Bytes: len(data), Write: true, Open: true}})
}

// Segment is one temporal loop of a partitioned source: the sources carry
// only the samples of [StartStep, EndStep), to be injected with the time
// offset StartStep*Dt.
type Segment struct {
	StartStep, EndStep int
	Sources            []source.SampledSource
}

// PartitionTemporal splits each source's history into nLoops contiguous
// windows (PetaSrcP stage 2), bounding the in-memory footprint to ~1/nLoops
// of the full source.
func PartitionTemporal(srcs []source.SampledSource, nLoops int) ([]Segment, error) {
	if nLoops <= 0 {
		return nil, fmt.Errorf("srcgen: nLoops must be positive")
	}
	nt := 0
	for i := range srcs {
		if len(srcs[i].Rate) > nt {
			nt = len(srcs[i].Rate)
		}
	}
	if nLoops > nt {
		nLoops = nt
	}
	segs := make([]Segment, 0, nLoops)
	for l := 0; l < nLoops; l++ {
		s0 := l * nt / nLoops
		s1 := (l + 1) * nt / nLoops
		seg := Segment{StartStep: s0, EndStep: s1}
		for i := range srcs {
			src := &srcs[i]
			if s0 >= len(src.Rate) {
				continue
			}
			e := min(s1, len(src.Rate))
			window := source.SampledSource{
				GI: src.GI, GJ: src.GJ, GK: src.GK, Dt: src.Dt,
				Rate: src.Rate[s0:e],
			}
			seg.Sources = append(seg.Sources, window)
		}
		segs = append(segs, seg)
	}
	return segs, nil
}

// MemoryBytes estimates the in-memory footprint of a source list (the
// quantity the temporal split bounds).
func MemoryBytes(srcs []source.SampledSource) int {
	total := 0
	for i := range srcs {
		total += 5*4 + len(srcs[i].Rate)*6*4
	}
	return total
}

// HighWater returns the maximum per-segment memory across segments.
func HighWater(segs []Segment) int {
	m := 0
	for _, seg := range segs {
		if b := MemoryBytes(seg.Sources); b > m {
			m = b
		}
	}
	return m
}

package grid

// What only the benchmark reaches, kept until it stops calling it:
//
//	fd.State's Clone, L2Diff and MaxAbs (internal/core/fd/bench_compat.go),
//	which bench/probes.go:139, :181, :215, :343 and :349 call.

import (
	"fmt"
	"math"
)

// CopyFrom copies the full padded contents of src, which must have
// identical dims and ghost width.
func (f *Field3) CopyFrom(src *Field3) {
	if f.Dims != src.Dims || f.g != src.g {
		panic(fmt.Sprintf("grid: CopyFrom mismatch %v/g%d != %v/g%d", f.Dims, f.g, src.Dims, src.g))
	}
	copy(f.data, src.data)
}

// MaxAbs returns the maximum absolute interior value.
func (f *Field3) MaxAbs() float32 {
	var m float32
	for k := 0; k < f.NZ; k++ {
		for j := 0; j < f.NY; j++ {
			base := f.Idx(0, j, k)
			for _, v := range f.data[base : base+f.NX] {
				if v < 0 {
					v = -v
				}
				if v > m {
					m = v
				}
			}
		}
	}
	return m
}

// L2Diff returns the root-sum-square difference between the interiors of
// f and g, which must have identical dims.
func (f *Field3) L2Diff(g *Field3) float64 {
	if f.Dims != g.Dims {
		panic(fmt.Sprintf("grid: L2Diff dims mismatch %v != %v", f.Dims, g.Dims))
	}
	var s float64
	for k := 0; k < f.NZ; k++ {
		for j := 0; j < f.NY; j++ {
			a := f.Idx(0, j, k)
			b := g.Idx(0, j, k)
			for i := 0; i < f.NX; i++ {
				d := float64(f.data[a+i]) - float64(g.data[b+i])
				s += d * d
			}
		}
	}
	return math.Sqrt(s)
}

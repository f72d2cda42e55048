// Package testkit holds what several packages' tests share and no program
// calls: field helpers over grid's public API, a sampled source's scalar
// moment and the little-endian float32 codec of the record files. Only _test.go files may import it
// (scripts/check_exports holds that line).
package testkit

import (
	"encoding/binary"
	"math"

	"repro/internal/grid"
)

// Ghost returns f's ghost width, read off its padded row stride.
func Ghost(f *grid.Field3) int {
	_, sy, _ := f.Strides()
	return (sy - f.NX) / 2
}

// Fill sets every element of f, ghosts included, to v.
func Fill(f *grid.Field3, v float32) {
	d := f.Data()
	for i := range d {
		d[i] = v
	}
}

// SumSq returns the sum of squares of f's interior values in float64.
func SumSq(f *grid.Field3) float64 {
	var s float64
	for k := 0; k < f.NZ; k++ {
		for j := 0; j < f.NY; j++ {
			for i := 0; i < f.NX; i++ {
				v := float64(f.At(i, j, k))
				s += v * v
			}
		}
	}
	return s
}

// Moment returns the total scalar moment of a sampled moment-rate history
// (source.SampledSource's Rate and Dt): the trapezoid integral of the
// tensor rate, reduced to a scalar via the double-couple norm
// sqrt(sum Mij^2 / 2) (counting off-diagonals twice).
func Moment(rate [][6]float32, dt float64) float64 {
	var acc [6]float64
	for n := range rate {
		w := 1.0
		if n == 0 || n == len(rate)-1 {
			w = 0.5
		}
		for c := 0; c < 6; c++ {
			acc[c] += w * float64(rate[n][c]) * dt
		}
	}
	sum := acc[0]*acc[0] + acc[1]*acc[1] + acc[2]*acc[2] +
		2*(acc[3]*acc[3]+acc[4]*acc[4]+acc[5]*acc[5])
	return math.Sqrt(sum / 2)
}

// PutFloat32s encodes vals little-endian into a new byte slice.
func PutFloat32s(vals []float32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// GetFloat32s decodes little-endian bytes into float32 values.
func GetFloat32s(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

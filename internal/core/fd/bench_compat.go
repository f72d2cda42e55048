package fd

// What only the benchmark reaches, kept until it stops calling it:
//
//	bench/probes.go:144  perCell(fd.Fused)
//	bench/probes.go:226  fd.ForEachTile(box, fd.DefaultBlocking, two, ...)
//	bench/probes.go:231  fd.UpdateStressTiled(..., one)
//	bench/probes.go:232  fd.UpdateStressTiled(..., two)

import (
	"math"

	"repro/internal/core/sched"
	"repro/internal/medium"
)

// Fused is the former name of the row sweep that is now Blocked.
const Fused = Blocked

// UpdateStressTiled runs UpdateStress over box as a tile queue on the
// persistent pool (the §IV.D hybrid mode, which the solver does not run:
// its ranks are single goroutines, DESIGN.md §7). Results are
// bit-identical to the serial kernel for every Variant.
func UpdateStressTiled(s *State, m *medium.Medium, dt float64, box Box, v Variant, blk Blocking, p *sched.Pool) {
	ForEachTile(box, blk, p, func(b Box) {
		UpdateStress(s, m, dt, b, v, blk)
	})
}

// ForEachTile runs fn over the j/k tiles of box on the pool (serially for
// a nil/serial pool). A serial pool visits tiles in the deterministic
// forEachBlock order.
func ForEachTile(box Box, blk Blocking, p *sched.Pool, fn func(Box)) {
	if box.Empty() {
		return
	}
	if p.Size() == 1 {
		forEachBlock(box, blk, fn)
		return
	}
	tiles := Tiles(box, blk)
	p.ForEachN(len(tiles), func(i int) { fn(tiles[i]) })
}

// Clone deep-copies the state into fields placed as NewState places them.
func (s *State) Clone() *State {
	c := NewState(s.Dims)
	src := s.Fields()
	for i, f := range c.Fields() {
		f.CopyFrom(src[i])
	}
	return c
}

// L2Diff returns the root-sum-square difference over all nine components.
func (s *State) L2Diff(o *State) float64 {
	var sum float64
	sf, of := s.Fields(), o.Fields()
	for i := range sf {
		d := sf[i].L2Diff(of[i])
		sum += d * d
	}
	// sqrt of sum of squared L2 norms.
	return math.Sqrt(sum)
}

// MaxAbs returns the largest absolute value across all components.
func (s *State) MaxAbs() float32 {
	var m float32
	for _, f := range s.Fields() {
		if v := f.MaxAbs(); v > m {
			m = v
		}
	}
	return m
}

package fd

// What only the benchmark reaches, kept until it stops calling it:
//
//	bench/probes.go:144  perCell(fd.Fused)
//	bench/probes.go:226  fd.ForEachTile(box, fd.DefaultBlocking, two, ...)
//	bench/probes.go:231  fd.UpdateStressTiled(..., one)
//	bench/probes.go:232  fd.UpdateStressTiled(..., two)

import (
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

package fd

import (
	"repro/internal/core/sched"
	"repro/internal/medium"
)

// Hybrid MPI/OpenMP mode (§IV.D): within one rank, the kernel loops split
// over worker goroutines sharing the rank's memory — the analogue of OpenMP
// threads spawned from a single MPI process. Cells are independent within
// one kernel application, so any decomposition into j/k tiles is
// bit-identical to the serial kernel. The solver runs none of this — its
// ranks are single goroutines (DESIGN.md §7) — and the benchmark's sched
// probe times it: the j/k panels of the cache-blocking scheme as a tile
// queue drained by a fixed worker pool (sched.Pool).

// UpdateStressTiled runs UpdateStress over box as a tile queue on the
// persistent pool. Results are bit-identical to the serial kernel for
// every Variant.
func UpdateStressTiled(s *State, m *medium.Medium, dt float64, box Box, v Variant, blk Blocking, p *sched.Pool) {
	ForEachTile(box, blk, p, func(b Box) {
		UpdateStress(s, m, dt, b, v, blk)
	})
}

// Tiles splits box into j/k panels of at most blk.JBlock x blk.KBlock
// cells (full x extent, the same panels forEachBlock visits): the solver's
// tiles and the pooled sweep's work units. Non-positive blocking factors fall
// back to DefaultBlocking. An empty box yields no tiles.
func Tiles(box Box, blk Blocking) []Box {
	if box.Empty() {
		return nil
	}
	jb, kb := blk.JBlock, blk.KBlock
	if jb <= 0 {
		jb = DefaultBlocking.JBlock
	}
	if kb <= 0 {
		kb = DefaultBlocking.KBlock
	}
	nj := (box.J1 - box.J0 + jb - 1) / jb
	nk := (box.K1 - box.K0 + kb - 1) / kb
	tiles := make([]Box, 0, nj*nk)
	forEachBlock(box, blk, func(b Box) { tiles = append(tiles, b) })
	return tiles
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

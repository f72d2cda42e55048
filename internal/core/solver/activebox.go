package solver

import (
	"math"

	"repro/internal/core/fd"
	"repro/internal/grid"
)

// activeBox is a rank's domain of dependence (DESIGN.md §7, "The active
// box"): a box of local, ghost-inclusive indices outside which every value of
// the padded arrays — the nine fields, the memory variables, the zone splits —
// is a zero no sweep of the step can change (the free-surface images aside:
// they are written whole, and no clipped pass touches them). Every tile of the
// rank's plan — with the fault, the sources and the sponge's damping riding
// it — the PGV fold and the halo messages run on their intersection with it.
// It starts empty and only grows: by the stencil radius ahead of each sweep
// (grow), by the source nodes that went live and the fault window (join), and
// by the hull of the ghost values that arrived nonzero (takeHalo). Once it fills the padded subgrid, every tile is
// its own intersection with it, every message ships whole faces and takeHalo
// walks no buffer; a state rewritten from outside, which the box no longer
// describes, fills it at once (fill).
type activeBox struct {
	fd.Box
	padded fd.Box // the padded subgrid: growth clamps to it
}

func newActiveBox(d grid.Dims) *activeBox {
	g := grid.Ghost
	return &activeBox{padded: fd.Box{I0: -g, I1: d.NX + g, J0: -g, J1: d.NY + g, K0: -g, K1: d.NZ + g}}
}

// join takes b into the box.
func (a *activeBox) join(b fd.Box) { a.Box = a.Hull(b.Intersect(a.padded)) }

// fill makes the box the whole padded subgrid.
func (a *activeBox) fill() { a.Box = a.padded }

// grow dilates the box by the stencil radius: what one sweep can reach.
func (a *activeBox) grow() {
	if a.Empty() {
		return
	}
	g := grid.Ghost
	a.Box = fd.Box{I0: a.I0 - g, I1: a.I1 + g, J0: a.J0 - g, J1: a.J1 + g, K0: a.K0 - g, K1: a.K1 + g}.Intersect(a.padded)
}

// takeHalo takes in the hull of the ghost cells the messages of a finished
// exchange are about to fill with something other than ±0, walking each
// received section's clipped block (takeHeader laid them out) — outside it
// the ghosts stay +0. A face whose ghost slab already lies inside the box is
// not walked.
func (a *activeBox) takeHalo(msgs []message) {
	for i := range msgs {
		m := &msgs[i]
		if a.Contains(m.slab) {
			continue
		}
		for si := range m.secs {
			sec := &m.secs[si]
			if n := blockLen(sec.got); n > 0 {
				a.Box = a.Hull(nonzeroHull(m.buf[sec.gotOff:][:n], sec.got))
			}
		}
	}
}

// nonzeroHull returns the hull of the values of buf — the block blk in
// x-fastest order, as grid.Field3.PackRange lays it out — that are not ±0.
func nonzeroHull(buf []float32, blk [6]int) fd.Box {
	var hull fd.Box
	w := blk[1] - blk[0]
	for k := blk[4]; k < blk[5]; k++ {
		for j := blk[2]; j < blk[3]; j++ {
			row := buf[:w]
			buf = buf[w:]
			var any uint32
			for _, v := range row {
				any |= math.Float32bits(v)
			}
			if any<<1 == 0 {
				continue
			}
			lo, hi := 0, w-1
			for math.Float32bits(row[lo])<<1 == 0 {
				lo++
			}
			for math.Float32bits(row[hi])<<1 == 0 {
				hi--
			}
			hull = hull.Hull(fd.Box{I0: blk[0] + lo, I1: blk[0] + hi + 1, J0: j, J1: j + 1, K0: k, K1: k + 1})
		}
	}
	return hull
}

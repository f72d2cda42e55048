package solver

import (
	"fmt"
	"testing"

	"repro/internal/core/boundary"
	"repro/internal/core/fd"
	"repro/internal/grid"
)

// TestTilePlanPartitionsSubgrid holds the derived tile plan on the rank
// subgrids of the benchmark workloads (solve-1rank and solve-mpml 56x56x40,
// solve-8rank 28x28x20, pipeline 96x64x64, a farm job 20x20x14), without
// zones and under M-PML at widths 3 and 10, with and without the AsyncOverlap
// strips, at 1, 2, 3 and 8 threads: every cell of compBox and of each zone —
// which partition the subgrid — lies in exactly one tile, a zone's tiles lie
// in their zone, one thread makes each box one tile, and more threads cut
// each box into a tile an executor unless its rows run out.
func TestTilePlanPartitionsSubgrid(t *testing.T) {
	// alone owns every face but the free surface and has no neighbour;
	// corner owns x-low, y-low and z-high and has neighbours past the others.
	type rank struct {
		name  string
		faces boundary.FaceSet
		nbr   [3][2]bool
	}
	ranks := []rank{
		{"alone", boundary.FaceSet{XLo: true, XHi: true, YLo: true, YHi: true, ZHi: true}, [3][2]bool{}},
		{"corner", boundary.FaceSet{XLo: true, YLo: true, ZHi: true}, [3][2]bool{{false, true}, {false, true}, {false, false}}},
	}
	for _, d := range []grid.Dims{{NX: 56, NY: 56, NZ: 40}, {NX: 28, NY: 28, NZ: 20}, {NX: 96, NY: 64, NZ: 64}, {NX: 20, NY: 20, NZ: 14}} {
		for _, width := range []int{0, 3, 10} {
			for _, r := range ranks {
				if width > 0 && boundary.PMLInterior(d, r.faces, width).Empty() {
					continue
				}
				for _, comm := range []CommModel{AsyncReduced, AsyncOverlap} {
					for _, threads := range []int{1, 2, 3, 8} {
						tag := fmt.Sprintf("%v/pml%d/%s/%v/threads%d", d, width, r.name, comm, threads)
						checkTilePlan(t, tag, d, width, r.faces, r.nbr, Options{Comm: comm, Threads: threads})
					}
				}
			}
		}
	}
}

func checkTilePlan(t *testing.T, tag string, d grid.Dims, width int, faces boundary.FaceSet, nbr [3][2]bool, opt Options) {
	t.Helper()
	rs := &rankState{nbrMask: nbr, compBox: fd.FullBox(d)}
	rs.sub.Local = d
	if width > 0 {
		rs.zones, rs.compBox = boundary.BuildPML(d, faces, width, boundary.DefaultMPMLRatio,
			boundary.DefaultPMLReflection, 6000, 100)
	}
	pre, inner, innerBox := rs.cutTiles(opt)

	// The boxes the plan cuts, and how many tiles each got.
	boxes := map[fd.Box]int{}
	if opt.Comm == AsyncOverlap {
		strips, _ := boundaryStrips(d, nbr, grid.Ghost)
		for _, s := range strips {
			if b := s.Intersect(rs.compBox); !b.Empty() {
				boxes[b] = 0
			}
		}
		if !innerBox.Empty() {
			boxes[innerBox] = 0
		}
	} else {
		boxes[rs.compBox] = 0
	}
	for _, z := range rs.zones {
		boxes[z.Zone] = 0
	}

	seen := make([]int, d.Cells())
	for _, tl := range append(pre, inner...) {
		b := tl.b
		if b.Empty() {
			t.Fatalf("%s: empty tile %v", tag, b)
		}
		owner := fd.Box{}
		for box := range boxes {
			if b.Intersect(box) == b {
				owner = box
			}
		}
		if owner.Empty() || (tl.zone != nil && owner != tl.zone.Zone) {
			t.Fatalf("%s: tile %v lies in none of the plan's boxes, or outside its zone", tag, b)
		}
		boxes[owner]++
		for k := b.K0; k < b.K1; k++ {
			for j := b.J0; j < b.J1; j++ {
				for i := b.I0; i < b.I1; i++ {
					seen[(k*d.NY+j)*d.NX+i]++
				}
			}
		}
	}
	for n, c := range seen {
		if c != 1 {
			t.Fatalf("%s: cell (%d,%d,%d) lies in %d tiles", tag, n%d.NX, n/d.NX%d.NY, n/(d.NX*d.NY), c)
		}
	}
	for box, n := range boxes {
		rows := (box.J1 - box.J0) * (box.K1 - box.K0)
		want := min(opt.Threads, rows)
		if opt.Threads == 1 && n != 1 || opt.Threads > 1 && n < want {
			t.Fatalf("%s: box %v cut into %d tiles, want %d", tag, box, n, want)
		}
	}
}

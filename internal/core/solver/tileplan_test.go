package solver

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core/boundary"
	"repro/internal/core/fd"
	"repro/internal/core/source"
	"repro/internal/cvm"
	"repro/internal/grid"
	"repro/internal/mpi"
)

// TestTilePlanPartitionsSubgrid holds the derived tile plan on the rank
// subgrids of the benchmark workloads (solve-1rank and solve-mpml 56x56x40,
// solve-8rank 28x28x20, pipeline 96x64x64, a farm job 20x20x14), without
// zones and under M-PML at widths 3 and 10, with and without the AsyncOverlap
// strips, derived and at two cache blocks: every cell of compBox and of each
// zone — which partition the subgrid — lies in exactly one tile, a zone's
// tiles lie in their zone, the derived shape makes each box one tile, and a
// cache block cuts each box into its j/k blocks.
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
					for _, blk := range []fd.Blocking{{}, {JBlock: 8, KBlock: 16}, {JBlock: 3, KBlock: 5}} {
						tag := fmt.Sprintf("%v/pml%d/%s/%v/tiles%dx%d", d, width, r.name, comm, blk.JBlock, blk.KBlock)
						checkTilePlan(t, tag, d, width, r.faces, r.nbr, Options{Comm: comm, Blocking: blk})
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
		want := 1
		if blk := opt.Blocking; blk != (fd.Blocking{}) {
			want = ceilDiv(box.J1-box.J0, blk.JBlock) * ceilDiv(box.K1-box.K0, blk.KBlock)
		}
		if n != want {
			t.Fatalf("%s: box %v cut into %d tiles, want %d", tag, box, n, want)
		}
	}
}

// ceilDiv is a/b rounded up.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// stressPlan builds the one-rank Stepper of opt and returns its stress tiles
// — those of stressPre, then stressInner — and which of them its plan runs as
// the plane loop.
func stressPlan(t *testing.T, q cvm.Querier, opt Options) (tiles []fd.Box, planeLoop []bool) {
	t.Helper()
	opt.Topo = mpi.NewCart(1, 1, 1)
	_, err := runWorld(q, opt, func(_ *mpi.Comm, st *Stepper) {
		pre, inner, _ := st.rs.cutTiles(st.opt)
		for _, tl := range append(pre, inner...) {
			tiles = append(tiles, tl.b)
		}
		planeLoop = st.rs.plan.planeLoop
		if !slices.Equal(planeLoop, st.rs.whole.planeLoop) {
			t.Errorf("the clipped plan's plane loops %v differ from the whole plan's %v", planeLoop, st.rs.whole.planeLoop)
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(planeLoop) != len(tiles) {
		t.Fatalf("%d stress tiles, %d marked", len(tiles), len(planeLoop))
	}
	return tiles, planeLoop
}

// TestStressTilesTakeTheTaperedSweep pins which stress tiles buildTilePlan
// runs as one tapered walker sweep and which as the plane loop. A plan that
// ran every tile as the plane loop would store the same bits, slower, so no
// bit test sees it. boxScenario's tile that holds its source in the y-low
// taper takes the plane loop, under the fused and under the elastic walker,
// and every other tile the one sweep; under a DFR fault every tile takes the
// plane loop; a farm job (20×20×14, a sponge of 4 cells, its hypocentre
// anywhere in the ensemble's range) takes the one sweep on every tile.
func TestStressTilesTakeTheTaperedSweep(t *testing.T) {
	in := func(b fd.Box, n [3]int) bool {
		return b.Contains(fd.Box{I0: n[0], I1: n[0] + 1, J0: n[1], J1: n[1] + 1, K0: n[2], K1: n[2] + 1})
	}
	boxQ := cvm.SoCal(3200, 2800, 2000, 400)
	for _, atten := range []bool{true, false} {
		for _, comm := range []CommModel{AsyncReduced, AsyncOverlap} {
			for _, blk := range []fd.Blocking{{}, {JBlock: 3, KBlock: 5}} {
				opt := boxScenario(SpongeABC)
				opt.Attenuation, opt.Comm, opt.Blocking = atten, comm, blk
				src := opt.Sources[1]
				tiles, loop := stressPlan(t, boxQ, opt)
				for i, b := range tiles {
					if want := in(b, [3]int{src.GI, src.GJ, src.GK}); loop[i] != want {
						t.Errorf("attenuation %v %v blocking %v: tile %v plane loop %v, want %v", atten, comm, blk, b, loop[i], want)
					}
				}
			}
		}
	}

	fault := boxScenario(SpongeABC)
	fault.Sources = nil
	fault.Fault = overstressedFault(11, 10, 10, 2, 6)
	fault.Blocking = fd.Blocking{JBlock: 3, KBlock: 5}
	if _, loop := stressPlan(t, boxQ, fault); slices.Contains(loop, false) {
		t.Errorf("DFR under the sponge: plane loops %v, want all", loop)
	}

	// The farm's grid and ensemble range (farm.DefaultSpec, DefaultRange):
	// hypocentres at 0.25–0.75 of x and y and 0.3–0.7 of z.
	d := grid.Dims{NX: 20, NY: 20, NZ: 14}
	farmQ := cvm.SoCal(1900, 1900, 1300, 400)
	for _, hypo := range [][3]int{{5, 5, 4}, {10, 10, 7}, {14, 14, 9}} {
		for _, atten := range []bool{false, true} {
			opt := Options{
				Global: d, H: 100, Steps: 1, Comm: AsyncReduced,
				ABC: SpongeABC, SpongeWidth: 4, FreeSurface: true, Attenuation: atten,
				Sources: []source.SampledSource{source.PointSource{GI: hypo[0], GJ: hypo[1], GK: hypo[2], M0: 1e9,
					Tensor: source.StrikeSlipXY, STF: source.GaussianPulse(0.08, 0.02)}.Sample(0.002, 120)},
				TrackPGV: true,
			}
			if _, loop := stressPlan(t, farmQ, opt); slices.Contains(loop, true) {
				t.Errorf("farm job, hypocentre %v, attenuation %v: plane loops %v, want none", hypo, atten, loop)
			}
		}
	}
}

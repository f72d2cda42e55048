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
// strips: every cell of compBox and of each zone — which partition the
// subgrid — lies in exactly one tile, a zone's tiles lie in their zone, and
// each box is one tile.
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
					tag := fmt.Sprintf("%v/pml%d/%s/%v", d, width, r.name, comm)
					checkTilePlan(t, tag, d, width, r.faces, r.nbr, Options{Comm: comm})
				}
			}
		}
	}
}

func checkTilePlan(t *testing.T, tag string, d grid.Dims, width int, faces boundary.FaceSet, nbr [3][2]bool, opt Options) {
	t.Helper()
	rs := &Stepper{opt: opt, nbrMask: nbr, compBox: fd.FullBox(d)}
	rs.sub.Local = d
	if width > 0 {
		rs.zones, rs.compBox = boundary.BuildPML(d, faces, width, boundary.DefaultMPMLRatio,
			boundary.DefaultPMLReflection, 6000, 100)
	}
	pre, inner := rs.cutTiles()

	// The boxes the plan cuts, and how many tiles each got.
	boxes := map[fd.Box]int{}
	if opt.Comm == AsyncOverlap {
		strips, innerBox := boundaryStrips(d, nbr, grid.Ghost)
		for _, s := range append(strips, innerBox) {
			if b := s.Intersect(rs.compBox); !b.Empty() {
				boxes[b] = 0
			}
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
		if n != 1 {
			t.Fatalf("%s: box %v cut into %d tiles, want 1", tag, box, n)
		}
	}
}

// stressPlan builds the one-rank Stepper of opt and returns its interior
// stress tiles — those of stressPre, then stressInner, zones left out — and
// which of them buildTilePlan runs as the one tapered sweep (taperedSweep).
func stressPlan(t *testing.T, q cvm.Querier, opt Options) (tiles []fd.Box, sweep []bool) {
	t.Helper()
	opt.Topo = mpi.NewCart(1, 1, 1)
	_, err := runWorld(q, opt, func(_ *mpi.Comm, st *Stepper) {
		pre, inner := st.cutTiles()
		for _, tl := range append(pre, inner...) {
			if tl.zone == nil {
				tiles = append(tiles, tl.b)
				sweep = append(sweep, st.taperedSweep(tl.b))
			}
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tiles, sweep
}

// TestVelocityTilesTakeTheTaperedSweep: every velocity tile runs the one
// body, the production kernel that multiplies each velocity by the taper as
// it loads it — the sponge's factors, or the zero taper without a sponge. With
// the velocities 1 and the stresses at rest, each cell of compBox must store
// the sponge's factor there, and 1 without a sponge, under every absorbing
// boundary and with and without the AsyncOverlap strips. A plan that damped
// its velocities by the sponge's own pass ahead of the kernel would store the
// same bits as the tapered sweep, slower; the tile's body has no other branch
// for it to take.
func TestVelocityTilesTakeTheTaperedSweep(t *testing.T) {
	boxQ := cvm.SoCal(3200, 2800, 2000, 400)
	for _, abc := range []ABCKind{SpongeABC, MPMLABC, NoABC} {
		for _, comm := range []CommModel{AsyncReduced, AsyncOverlap} {
			opt := boxScenario(abc)
			opt.Topo, opt.Comm, opt.Steps = mpi.NewCart(1, 1, 1), comm, 1
			tag := fmt.Sprintf("abc %d %v", abc, comm)
			var msg string
			_, err := runWorld(boxQ, opt, func(_ *mpi.Comm, st *Stepper) {
				msg = velocityTilesDamp(st)
			}, nil)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if msg != "" {
				t.Errorf("%s: %s", tag, msg)
			}
		}
	}
}

// velocityTilesDamp runs st's velocity queues over its filled box with every
// velocity 1 and the stresses at rest, and describes the first cell of
// compBox that does not hold the sponge's factor.
func velocityTilesDamp(st *Stepper) string {
	for _, f := range st.st.Velocities() {
		for n := range f.Data() {
			f.Data()[n] = 1
		}
	}
	st.box.fill()
	st.plan.velPre.drain()
	st.plan.velInner.drain()
	b := st.compBox
	for k := b.K0; k < b.K1; k++ {
		for j := b.J0; j < b.J1; j++ {
			for i := b.I0; i < b.I1; i++ {
				want := float32(1)
				if st.sponge != nil {
					want = st.sponge.Taper().At(i, j, k)
				}
				for c, f := range st.st.Velocities() {
					if got := f.At(i, j, k); got != want {
						return fmt.Sprintf("%s(%d,%d,%d) = %g after the velocity tiles, want %g", fd.FieldNames[c], i, j, k, got, want)
					}
				}
			}
		}
	}
	return ""
}

// TestStressTilesTakeTheTaperedSweep pins which stress tiles buildTilePlan
// runs as one tapered walker sweep and which as the split body
// (taperedSweep). A plan that split every tile would store the same bits,
// slower, so no bit test sees it. boxScenario's tile that holds its source in
// the y-low taper is split, under the fused and under the elastic walker, and
// every other tile takes the one sweep; without a sponge every tile takes it;
// under a DFR fault every tile is split; a farm job (20×20×14, a sponge of 4
// cells, its hypocentre anywhere in the ensemble's range) takes the one sweep
// on every tile.
func TestStressTilesTakeTheTaperedSweep(t *testing.T) {
	in := func(b fd.Box, n [3]int) bool {
		return b.Contains(fd.Box{I0: n[0], I1: n[0] + 1, J0: n[1], J1: n[1] + 1, K0: n[2], K1: n[2] + 1})
	}
	boxQ := cvm.SoCal(3200, 2800, 2000, 400)
	for _, atten := range []bool{true, false} {
		for _, comm := range []CommModel{AsyncReduced, AsyncOverlap} {
			for _, abc := range []ABCKind{SpongeABC, MPMLABC, NoABC} {
				opt := boxScenario(abc)
				opt.Attenuation, opt.Comm = atten, comm
				src := opt.Sources[1]
				tiles, sweep := stressPlan(t, boxQ, opt)
				for i, b := range tiles {
					if want := abc != SpongeABC || !in(b, [3]int{src.GI, src.GJ, src.GK}); sweep[i] != want {
						t.Errorf("abc %d, attenuation %v %v: tile %v sweep %v, want %v", abc, atten, comm, b, sweep[i], want)
					}
				}
			}
		}
	}

	for _, abc := range []ABCKind{SpongeABC, NoABC} {
		fault := boxScenario(abc)
		fault.Sources = nil
		fault.Fault = overstressedFault(11, 10, 10, 2, 6)
		if _, sweep := stressPlan(t, boxQ, fault); slices.Contains(sweep, true) {
			t.Errorf("DFR, abc %d: sweeps %v, want none", abc, sweep)
		}
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
			if _, sweep := stressPlan(t, farmQ, opt); slices.Contains(sweep, false) {
				t.Errorf("farm job, hypocentre %v, attenuation %v: sweeps %v, want all", hypo, atten, sweep)
			}
		}
	}
}

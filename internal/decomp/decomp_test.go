package decomp

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/mpi"
)

func mustNew(t *testing.T, g grid.Dims, topo mpi.Cart) Decomp {
	t.Helper()
	d, err := New(g, topo)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewRejectsBadConfigs(t *testing.T) {
	if _, err := New(grid.Dims{NX: 0, NY: 4, NZ: 4}, mpi.NewCart(1, 1, 1)); err == nil {
		t.Error("accepted invalid dims")
	}
	if _, err := New(grid.Dims{NX: 2, NY: 4, NZ: 4}, mpi.NewCart(3, 1, 1)); err == nil {
		t.Error("accepted more ranks than cells")
	}
	if _, err := New(grid.Dims{NX: 6, NY: 4, NZ: 4}, mpi.NewCart(2, 1, 1)); err == nil {
		t.Error("accepted subgrid thinner than 2*Ghost")
	}
}

func TestSubgridsTileGlobalExactly(t *testing.T) {
	g := grid.Dims{NX: 13, NY: 9, NZ: 11}
	topo := mpi.NewCart(3, 2, 2)
	d := mustNew(t, g, topo)
	covered := make(map[[3]int]int)
	total := 0
	for r := 0; r < topo.Size(); r++ {
		s := d.SubFor(r)
		total += s.Local.Cells()
		for k := 0; k < s.Local.NZ; k++ {
			for j := 0; j < s.Local.NY; j++ {
				for i := 0; i < s.Local.NX; i++ {
					key := [3]int{s.OffX + i, s.OffY + j, s.OffZ + k}
					covered[key]++
				}
			}
		}
	}
	if total != g.Cells() {
		t.Fatalf("total cells %d != global %d", total, g.Cells())
	}
	if len(covered) != g.Cells() {
		t.Fatalf("covered %d distinct cells, want %d", len(covered), g.Cells())
	}
	for key, n := range covered {
		if n != 1 {
			t.Fatalf("cell %v owned %d times", key, n)
		}
	}
}

func TestContainsLocalCoords(t *testing.T) {
	d := mustNew(t, grid.Dims{NX: 8, NY: 8, NZ: 8}, mpi.NewCart(2, 2, 2))
	s := d.SubFor(d.Topo.Rank(1, 1, 1))
	li, lj, lk, ok := s.Contains(5, 6, 7)
	if !ok {
		t.Fatal("high corner sub should contain (5,6,7)")
	}
	if li != 1 || lj != 2 || lk != 3 {
		t.Fatalf("local coords = %d,%d,%d", li, lj, lk)
	}
	if _, _, _, ok := s.Contains(0, 0, 0); ok {
		t.Fatal("high corner sub should not contain origin")
	}
}

func TestBoundaryFaces(t *testing.T) {
	d := mustNew(t, grid.Dims{NX: 8, NY: 8, NZ: 8}, mpi.NewCart(2, 1, 2))
	f := d.BoundaryFaces(d.Topo.Rank(0, 0, 0))
	if !f[grid.X][0] || f[grid.X][1] {
		t.Errorf("x faces = %v", f[grid.X])
	}
	if !f[grid.Y][0] || !f[grid.Y][1] {
		t.Errorf("y faces = %v (unsplit axis: both boundary)", f[grid.Y])
	}
	if !f[grid.Z][0] || f[grid.Z][1] {
		t.Errorf("z faces = %v", f[grid.Z])
	}
}

func TestSplit1BalancedAndComplete(t *testing.T) {
	prop := func(n16, p16 uint16) bool {
		n := int(n16%100) + 1
		p := int(p16%10) + 1
		if p > n {
			p = n
		}
		off := 0
		for c := 0; c < p; c++ {
			size, o := split1(n, p, c)
			if o != off {
				return false
			}
			if size != n/p && size != n/p+1 {
				return false
			}
			off += size
		}
		return off == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// mustBestTopo is BestTopo under the cut-area rule, perfmodel's objective.
func mustBestTopo(t *testing.T, g grid.Dims, n, minCells int, pinY bool) mpi.Cart {
	t.Helper()
	topo, err := BestTopo(g, n, minCells, pinY, CutArea)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestBestTopoPrefersCubes(t *testing.T) {
	g := grid.Dims{NX: 64, NY: 64, NZ: 64}
	topo := mustBestTopo(t, g, 8, 1, false)
	if topo.PX != 2 || topo.PY != 2 || topo.PZ != 2 {
		t.Fatalf("BestTopo(64^3, 8) = %+v, want 2x2x2", topo)
	}
	if topo.Size() != 8 {
		t.Fatalf("size = %d", topo.Size())
	}
}

func TestBestTopoRespectsAnisotropy(t *testing.T) {
	// A pencil-shaped domain should be split along its long axis.
	g := grid.Dims{NX: 1024, NY: 8, NZ: 8}
	topo := mustBestTopo(t, g, 4, 1, false)
	if topo.PX != 4 || topo.PY != 1 || topo.PZ != 1 {
		t.Fatalf("BestTopo(pencil, 4) = %+v, want 4x1x1", topo)
	}
}

func TestBestTopoAlwaysExactSize(t *testing.T) {
	g := grid.Dims{NX: 100, NY: 100, NZ: 100}
	for _, n := range []int{1, 2, 3, 5, 6, 7, 12, 24, 36, 60} {
		if topo := mustBestTopo(t, g, n, 4, false); topo.Size() != n {
			t.Fatalf("BestTopo size %d != %d", topo.Size(), n)
		}
	}
}

// TestBestTopoRespectsConstraints: the PY = 1 pin holds, every rank keeps
// minCells per axis, and a count that cannot be placed is an error, not an
// N×1×1 cart that does not fit.
func TestBestTopoRespectsConstraints(t *testing.T) {
	if topo := mustBestTopo(t, grid.Dims{NX: 64, NY: 32, NZ: 32}, 8, 4, true); topo.PY != 1 || topo.Size() != 8 {
		t.Fatalf("pinned topo %+v, want PY = 1 and 8 ranks", topo)
	}
	// 64 ranks need 4 per axis and so 16 cells per axis: no candidate fits
	// an 8-cube at 4 cells, while 1 cell per rank still places them.
	small := grid.Dims{NX: 8, NY: 8, NZ: 8}
	if topo, err := BestTopo(small, 64, 4, false, CutArea); err == nil {
		t.Fatalf("64 ranks on %v: got topology %+v, want an error", small, topo)
	}
	if topo := mustBestTopo(t, small, 64, 1, false); topo != (mpi.Cart{PX: 4, PY: 4, PZ: 4}) {
		t.Fatalf("64 ranks at 1 cell on %v: %+v, want 4x4x4", small, topo)
	}
	// A prime count larger than every axis has no factorization at all.
	if topo, err := BestTopo(small, 11, 1, false, CutArea); err == nil {
		t.Fatalf("11 ranks on %v: got topology %+v, want an error", small, topo)
	}
	for _, n := range []int{0, -1} {
		if _, err := BestTopo(small, n, 1, false, CutArea); err == nil {
			t.Fatalf("%d ranks: no error", n)
		}
	}
	// The bench's 8-rank topology.
	if topo := mustBestTopo(t, grid.Dims{NX: 48, NY: 48, NZ: 32}, 8, 4, false); topo != (mpi.Cart{PX: 2, PY: 2, PZ: 2}) {
		t.Fatalf("8 ranks on 48x48x32: %+v, want 2x2x2", topo)
	}
}

// TestStepCostPicks pins StepCost's picks, beside CutArea's, on solve-8rank's
// grid with and without DFR's PY = 1 pin, pipeline's grid on 4 and 8 ranks,
// a cube, and a pinned 64x32x32. A change to StepCost's constants that moves
// one of these picks fails here.
func TestStepCostPicks(t *testing.T) {
	for _, tc := range []struct {
		g    grid.Dims
		n    int
		pinY bool
		want mpi.Cart
		area mpi.Cart // the cut-area pick, for the record
	}{
		{grid.Dims{NX: 56, NY: 56, NZ: 40}, 8, false, mpi.NewCart(1, 4, 2), mpi.NewCart(2, 2, 2)},
		{grid.Dims{NX: 56, NY: 56, NZ: 40}, 8, true, mpi.NewCart(1, 1, 8), mpi.NewCart(4, 1, 2)},
		{grid.Dims{NX: 192, NY: 128, NZ: 64}, 4, false, mpi.NewCart(1, 2, 2), mpi.NewCart(2, 2, 1)},
		{grid.Dims{NX: 192, NY: 128, NZ: 64}, 8, false, mpi.NewCart(1, 4, 2), mpi.NewCart(4, 2, 1)},
		{grid.Dims{NX: 64, NY: 64, NZ: 64}, 8, false, mpi.NewCart(1, 2, 4), mpi.NewCart(2, 2, 2)},
		{grid.Dims{NX: 64, NY: 32, NZ: 32}, 8, true, mpi.NewCart(1, 1, 8), mpi.NewCart(4, 1, 2)},
	} {
		for _, obj := range []struct {
			name string
			cost TopoCost
			want mpi.Cart
		}{{"StepCost", StepCost, tc.want}, {"CutArea", CutArea, tc.area}} {
			got, err := BestTopo(tc.g, tc.n, 2*grid.Ghost, tc.pinY, obj.cost)
			if err != nil || got != obj.want {
				t.Errorf("%s: %d ranks on %v (pinY %v) = %+v, %v; want %+v", obj.name, tc.n, tc.g, tc.pinY, got, err, obj.want)
			}
		}
	}
}

// TestStepCostKeepsRowsLong: on solve-8rank's 56x56x40, every candidate that
// leaves x whole costs less than every one that halves it — the grouping
// the measured solve times resolve (1x*x* 0.47-0.52 s, 2x*x* 0.57-0.62 s);
// the order inside a group is within their noise.
func TestStepCostKeepsRowsLong(t *testing.T) {
	g := grid.Dims{NX: 56, NY: 56, NZ: 40}
	var whole, halved []int64
	for px := 1; px <= 2; px++ {
		for py := 1; py <= 8/px; py++ {
			if (8/px)%py != 0 {
				continue
			}
			c := StepCost(g, mpi.NewCart(px, py, 8/px/py))
			if px == 1 {
				whole = append(whole, c)
			} else {
				halved = append(halved, c)
			}
		}
	}
	if len(whole) != 4 || len(halved) != 3 {
		t.Fatalf("%d and %d candidates, want 4 and 3", len(whole), len(halved))
	}
	if slices.Max(whole) >= slices.Min(halved) {
		t.Fatalf("x whole %v, x halved %v: a halved candidate is predicted no slower", whole, halved)
	}
}
